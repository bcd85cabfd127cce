package lattice

// The update-mix rows race queries against updates, as the update_mix
// benchmark workload does (ARCHITECTURE.md, "Testing"): the test goroutine
// cycles the query edge's profile through three states, the second on the
// first's breakpoints (interval-precise invalidation), the third with one
// more (class-wide), and drives a maintainer from Network.Maintain through
// script, while readers ask a static executor and a time-dependent network,
// with one shared result cache or none. A time answer must be a version's
// inside its window: from the last SetProfile that returned before the read
// began to the last that began before it ended.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mcn"
	"mcn/internal/core"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/timedep"
)

// The instants the update-mix rows ask the instant kinds at, and how much
// later the cached row asks again: every breakpoint the profiles and the
// flipped states put on the axis lies on a quarter, never inside (at,
// at+mixJitter]. The spans the period kinds sweep. The order the writer
// installs the states in: three edits that keep the axis, so that an entry
// stored from a version an edit superseded stays reachable under its key,
// then two that move it.
var (
	mixInstants = []float64{3, 15, 27, 45}
	mixSpans    = [][2]float64{wholeSpan, {10, 35}}
	mixCycle    = [5]int{0, 1, 0, 1, 2}
)

const (
	mixJitter          = 0.125
	mixReaders, mixLen = 3, 40 // reader goroutines, and reads each
)

// mixRequest is one read: kind k on the static executor, or on the
// time-dependent network at instant at or over span.
type mixRequest struct {
	k              Kind
	static, period bool
	at             float64
	span           [2]float64
	opt            core.Options
}

// instant is the instant q's first ask, or its second (again), is at.
func (q mixRequest) instant(again bool) float64 { return q.at + mixJitter*float64(b2i(again)) }

func (q mixRequest) String() string {
	return fmt.Sprintf("%v static=%v at t=%g over %v, %v enh=%v", q.k, q.static, q.at, q.span, q.opt.Engine, !q.opt.NoEnhancements)
}

func mixRequests(sel Select) []mixRequest {
	var out []mixRequest
	for _, eng := range []core.Engine{core.LSA, core.CEA} {
		for _, noEnh := range []bool{false, true} {
			opt := core.Options{Engine: eng, NoEnhancements: noEnh}
			for _, k := range []Kind{Skyline, TopK, Nearest, Within, MultiSkyline, MultiTopK} {
				out = append(out, mixRequest{k: k, static: true, opt: opt})
			}
			for _, k := range timeKinds[:4] {
				for _, at := range mixInstants {
					out = append(out, mixRequest{k: k, at: at, opt: opt})
				}
			}
			for _, k := range timeKinds[4:] {
				for _, span := range mixSpans {
					out = append(out, mixRequest{k: k, period: true, span: span, opt: opt})
				}
			}
		}
	}
	return slices.DeleteFunc(out, func(q mixRequest) bool { return !sel.Kinds.has(q.k) })
}

// executorRequest is kind k of in as the executor takes it.
func executorRequest(k Kind, in *testnet.Instance, opt core.Options) mcn.BatchRequest {
	var q mcn.BatchRequest
	switch k {
	case Skyline:
		q = mcn.SkylineRequest(in.Loc)
	case TopK:
		q = mcn.TopKRequest(in.Loc, in.Agg, in.K)
	case Nearest:
		q = mcn.NearestRequest(in.Loc, in.CostIdx, in.K)
	case Within:
		q = mcn.WithinRequest(in.Loc, in.Budget)
	case MultiSkyline:
		q = mcn.MultiSourceSkylineRequest(in.CostIdx, in.Locs)
	case MultiTopK:
		q = mcn.MultiSourceTopKRequest(in.CostIdx, in.Locs, in.MultiAgg, in.K)
	}
	q.Opts = opt
	return q
}

// checkUpdateMix runs the selected update-mix rows and adds their counts to
// rep. A static answer must equal the oracle and the reference row with
// bounds, bit for bit with its work counters; a time answer, the oracle and
// the reference of a version in its window; the maintainer, the oracle on
// its live set (script). Once the writer stops, a quiet pass over a fresh
// cache asks every request again and may miss once per request.
func checkUpdateMix(t testing.TB, in *testnet.Instance, sel Select, o *oracle, srcs []source, seed int64, rep *Report) {
	t.Helper()
	ctx := context.Background()
	reqs := mixRequests(sel)
	for i, r := range rows {
		if !r.update || !sel.Rows.has(i) {
			continue
		}
		label := fmt.Sprintf("%v: %s", in, r.name)
		net := mcn.FromGraph(in.G)
		var cache *mcn.ResultCache
		if r.cached {
			cache = net.EnableResultCache(mcn.CacheOptions{})
		}
		ex := net.NewExecutor(mcn.ExecutorConfig{Workers: 2})
		m, err := net.Maintain(ctx, in.Loc)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		tv, flip := newTimeNet(t, in, seed, sel.Profiles), in.Loc.Edge
		var states []*timeNet // unraced, one per state
		for _, times := range [][]float64{{12.25, 31.75}, {12.25, 31.75}, {12.25, 22.5, 31.75}} {
			st := &timeNet{in: in, tn: timedep.New(in.G), profiled: map[graph.EdgeID]timedep.Profile{}}
			for e, p := range tv.profiled {
				st.set(t, e, p)
			}
			p := timedep.Profile{Times: times}
			for range times {
				p.Mult = append(p.Mult, tv.mult())
			}
			states = append(states, st)
			st.set(t, flip, p)
		}
		tv.set(t, flip, states[0].profiled[flip])
		tv.tn.EnableResultCache(cache)

		// The oracles' tables fill as they are read, so fill them here: the
		// readers only read them.
		refs := map[[2]int]answer{} // by kind, noEnh: the reference row's answers
		for _, q := range reqs {
			noEnh := q.opt.NoEnhancements
			if q.static {
				key := [2]int{int(q.k), b2i(noEnh)}
				if refs[key], err = run(q.k, srcs[0].src, in, core.Options{NoEnhancements: noEnh, Bounds: srcs[0].bounds}); err != nil {
					t.Fatal(err)
				}
				continue
			}
			for _, st := range states {
				switch {
				case q.period:
					for _, at := range st.tn.Breakpoints(q.span[0], q.span[1]) {
						st.at(at).reference(t, in, instantOf[q.k], noEnh)
					}
				default:
					st.at(q.instant(false)).reference(t, in, q.k, noEnh)
					st.at(q.instant(true)).reference(t, in, q.k, noEnh)
				}
			}
		}

		// Version w carries state mixCycle[w%5]: write w installs it.
		var started, done, reads, narrow atomic.Int64
		asks := 1 + b2i(r.cached)
		// verify reports how a, the answer to q (asked again or not),
		// departs from every version in [lo, hi], or "".
		verify := func(q mixRequest, again bool, a reply, lo, hi int64) string {
			if q.static {
				want := refs[[2]int{int(q.k), b2i(q.opt.NoEnhancements)}]
				if msg := o.check(q.k, in, a.answer, inProcess); msg != "" {
					return "oracle: " + msg
				}
				if msg := same(a.facs, want.facs, nil); msg != "" || a.stats != want.stats {
					return fmt.Sprintf("differs from the reference row: %s; stats %+v, want %+v", msg, a.stats, want.stats)
				}
				return ""
			}
			var msg string
			for w := lo; w <= hi; w++ {
				st := states[mixCycle[w%5]]
				if q.period {
					if err := st.checkPeriod(t, q.k, q.span, a.ivs, q.opt.NoEnhancements, inProcess); err != nil {
						msg = err.Error()
						continue
					}
				} else if msg = st.verifyAt(t, q.k, q.instant(again), q.opt.NoEnhancements, a.answer); msg != "" {
					continue
				}
				return ""
			}
			return fmt.Sprintf("matches no version in [%d, %d]; version %d: %s", lo, hi, hi, msg)
		}
		read := func(q mixRequest) string {
			lo := done.Load()
			var got [2]reply
			for i := range asks {
				var err error
				switch {
				case q.static:
					resp := ex.Do(ctx, executorRequest(q.k, in, q.opt))
					if err = resp.Err; err == nil {
						got[i].answer = answer{resp.Result.Facilities, resp.Result.Stats}
					}
				case q.period:
					got[i].ivs, err = tv.sweep(q.k, q.span, q.opt)
				default:
					got[i].answer, err = runAt(ctx, tv.tn, q.k, in, q.instant(i == 1), q.opt)
				}
				if err != nil {
					return err.Error()
				}
			}
			hi := started.Load()
			reads.Add(1)
			if hi-lo < 2 {
				narrow.Add(1)
			}
			for i := range asks {
				if msg := verify(q, i == 1, got[i], lo, hi); msg != "" {
					return fmt.Sprintf("%v (ask %d): %s", q, i+1, msg)
				}
			}
			return ""
		}

		var wg sync.WaitGroup
		var finished atomic.Bool
		for rd := range mixReaders {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for range mixLen {
					if msg := read(reqs[rng.Intn(len(reqs))]); msg != "" {
						t.Errorf("%s: %s", label, msg)
						return
					}
				}
			}(rand.New(rand.NewSource(seed + int64(rd))))
		}
		go func() {
			wg.Wait()
			finished.Store(true)
		}()
		defer wg.Wait() // a failing writer must not leave readers running
		write := func() {
			w := started.Load() + 1
			started.Store(w)
			if err := tv.tn.SetProfile(flip, states[mixCycle[w%5]].profiled[flip]); err != nil {
				t.Fatal(err)
			}
			done.Store(w)
			// Let a read land on this version before the next edit.
			for target := reads.Load() + 1; reads.Load() < target && !finished.Load(); {
				runtime.Gosched()
			}
		}
		script(t, label, in, m, seed, write)
		for !finished.Load() {
			write()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		rep.Narrow += int(narrow.Load())
		if cache == nil {
			continue
		}
		cs := cache.Stats()
		rep.Hits += cs.Hits
		rep.Invalidated += cs.Invalidated

		// The quiet pass, over a fresh cache.
		cache = net.EnableResultCache(mcn.CacheOptions{})
		ex = net.NewExecutor(mcn.ExecutorConfig{Workers: 2})
		tv.tn.EnableResultCache(cache)
		distinct := 0
		for _, q := range reqs {
			distinct += b2i(slices.Contains(timeKinds[:4], q.k))
			if msg := read(q); msg != "" {
				t.Fatalf("%s: quiet pass: %s", label, msg)
			}
		}
		if misses := cache.Stats().Misses; misses > int64(distinct) {
			t.Fatalf("%s: quiet pass: %d cache misses for %d distinct requests", label, misses, distinct)
		}
	}
}
