package timedep

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/rescache"
	"mcn/internal/vec"
)

// TestSetProfileRacesQueries runs one writer against concurrent readers of
// every instant kind and both period sweeps, with the result cache off and
// on. The writer flips one edge through two profiles on the same
// breakpoints and one that adds a breakpoint, so it exercises both the
// shared-interval delta and the axis refill, and under the cache both
// interval-precise and class-wide invalidation. Every answer must equal the
// Snapshot oracle of some version published inside the read's window: at
// least the last version whose SetProfile returned before the read began, at
// most the last whose SetProfile began before the read ended. A sweep's
// oracle is refOverPeriod's on that version.
func TestSetProfileRacesQueries(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 120, Facilities: 25, Clusters: 2, D: 3, Queries: 3, Seed: 5, IntegerCosts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := inst.Graph
	flip := inst.Queries[0].Edge // on a query edge, so every state moves answers
	background := graph.EdgeID((int(flip) + 1) % g.NumEdges())
	states := []Profile{
		{Times: []float64{10, 20}, Mult: []vec.Costs{vec.Of(3, 1, 1), vec.Of(1, 1, 1)}},
		{Times: []float64{10, 20}, Mult: []vec.Costs{vec.Of(1, 3, 0.5), vec.Of(2, 2, 2)}},
		{Times: []float64{10, 15, 20}, Mult: []vec.Costs{vec.Of(0.5, 0.5, 3), vec.Of(3, 3, 3), vec.Of(1, 2, 1)}},
	}
	setup := func(n *Network, state int) {
		t.Helper()
		if err := n.SetProfile(background, Profile{Times: []float64{5, 25}, Mult: []vec.Costs{vec.Of(2, 1, 2), vec.Of(1, 1, 1)}}); err != nil {
			t.Fatal(err)
		}
		if err := n.SetProfile(flip, states[state]); err != nil {
			t.Fatal(err)
		}
	}

	// An instant kind answers at t as one interval [t, t); a period kind
	// sweeps [t, t+span).
	const span = 10
	type query struct {
		name   string
		period bool
		run    func(*Network, graph.Location, float64) ([]IntervalResult, error)
		ref    func(expand.Source, graph.Location) (*core.Result, error)
	}
	instant := func(name string, at func(*Network, graph.Location, float64) (*core.Result, error), ref func(expand.Source, graph.Location) (*core.Result, error)) query {
		return query{name, false, func(n *Network, l graph.Location, t float64) ([]IntervalResult, error) {
			res, err := at(n, l, t)
			return []IntervalResult{{From: t, To: t, Result: res}}, err
		}, ref}
	}
	agg, budget := vec.NewWeighted(1, 0.5, 2), vec.Of(6, 6, 6)
	skyline := func(s expand.Source, l graph.Location) (*core.Result, error) {
		return core.Skyline(s, l, core.Options{})
	}
	topk := func(s expand.Source, l graph.Location) (*core.Result, error) {
		return core.TopK(s, l, agg, 3, core.Options{})
	}
	queries := []query{
		instant("skyline", func(n *Network, l graph.Location, t float64) (*core.Result, error) {
			return n.SkylineAt(ctx, l, t, core.Options{Engine: core.CEA})
		}, skyline),
		instant("topk", func(n *Network, l graph.Location, t float64) (*core.Result, error) {
			return n.TopKAt(ctx, l, agg, 3, t, core.Options{})
		}, topk),
		instant("nearest", func(n *Network, l graph.Location, t float64) (*core.Result, error) {
			return n.NearestAt(ctx, l, 2, 3, t, core.Options{})
		}, func(s expand.Source, l graph.Location) (*core.Result, error) {
			return core.Nearest(s, l, 2, 3, core.Options{})
		}),
		instant("within", func(n *Network, l graph.Location, t float64) (*core.Result, error) {
			return n.WithinAt(ctx, l, budget, t, core.Options{})
		}, func(s expand.Source, l graph.Location) (*core.Result, error) {
			return core.Within(s, l, budget, core.Options{})
		}),
		{"skyline/period", true, func(n *Network, l graph.Location, t float64) ([]IntervalResult, error) {
			return n.SkylineOverPeriod(ctx, l, t, t+span, core.Options{Engine: core.CEA})
		}, skyline},
		{"topk/period", true, func(n *Network, l graph.Location, t float64) ([]IntervalResult, error) {
			return n.TopKOverPeriod(ctx, l, agg, 3, t, t+span, core.Options{})
		}, topk},
	}
	instants := []float64{3, 12, 17, 22}

	// oracle[state][query][location][instant], from Snapshot + MemorySource.
	oracle := make([][][][][]IntervalResult, len(states))
	for s := range states {
		ref := New(g)
		setup(ref, s)
		oracle[s] = make([][][][]IntervalResult, len(queries))
		for qi, q := range queries {
			oracle[s][qi] = make([][][]IntervalResult, len(inst.Queries))
			for li, loc := range inst.Queries {
				for _, at := range instants {
					var want []IntervalResult
					if q.period {
						want = refOverPeriod(t, ref, at, at+span, func(src expand.Source) (*core.Result, error) { return q.ref(src, loc) })
					} else {
						snap, err := ref.Snapshot(at)
						if err != nil {
							t.Fatal(err)
						}
						res, err := q.ref(expand.NewMemorySource(snap), loc)
						if err != nil {
							t.Fatal(err)
						}
						want = []IntervalResult{{From: at, To: at, Result: res}}
					}
					oracle[s][qi][li] = append(oracle[s][qi][li], want)
				}
			}
		}
	}
	if sameFacilityList(oracle[0][0][0][1][0].Result.Facilities, oracle[1][0][0][1][0].Result.Facilities) &&
		sameFacilityList(oracle[0][0][0][1][0].Result.Facilities, oracle[2][0][0][1][0].Result.Facilities) {
		t.Fatal("the flipped states give one skyline at t=12; the oracle cannot tell versions apart")
	}

	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			n := New(g)
			var cache *rescache.Cache
			if cached {
				cache = rescache.New(rescache.Options{Entries: 64})
				n.EnableResultCache(cache)
			}
			setup(n, 0)
			// Version w carries states[w%3]: write w (from 1) installs it.
			var started, done, reads atomic.Int64
			var strict atomic.Int64
			var readersDone atomic.Bool
			const readers, perReader = 3, 200

			var writer sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				for w := int64(1); !readersDone.Load(); w++ {
					started.Store(w)
					if err := n.SetProfile(flip, states[w%3]); err != nil {
						t.Error(err)
						return
					}
					done.Store(w)
					// Let a read land on this version before the next edit.
					for target := reads.Load() + 1; reads.Load() < target && !readersDone.Load(); {
						runtime.Gosched()
					}
				}
			}()

			// Under the cache each read is asked twice in a row, counting as
			// one read for the writer's pacing, so the second usually meets
			// the entry the first stored: asked once, a run of 600 reads met
			// no stored entry in about one run of 40.
			asks := 1
			if cached {
				asks = 2
			}
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < perReader; i++ {
						qi, li, ti := rng.Intn(len(queries)), rng.Intn(len(inst.Queries)), rng.Intn(len(instants))
						lo := done.Load()
						var answers [][]IntervalResult
						for range asks {
							res, err := queries[qi].run(n, inst.Queries[li], instants[ti])
							if err != nil {
								t.Error(err)
								return
							}
							answers = append(answers, res)
						}
						hi := started.Load()
						reads.Add(1)
						runtime.Gosched() // give the writer its turn
						if hi-lo < int64(len(states))-1 {
							strict.Add(1)
						}
						for _, res := range answers {
							ok := false
							for w := lo; w <= hi && !ok; w++ {
								ok = sameIntervals(res, oracle[w%3][qi][li][ti])
							}
							if !ok {
								t.Errorf("%s at t=%g from location %d: answer %v matches no version in [%d, %d]",
									queries[qi].name, instants[ti], li, res, lo, hi)
								return
							}
						}
					}
				}(int64(r + 1))
			}
			wg.Wait()
			readersDone.Store(true)
			writer.Wait()
			if strict.Load() == 0 {
				t.Error("every read window spanned all states; the oracle check was vacuous")
			}
			if cached && cache.Stats().Hits == 0 {
				t.Error("the cached run never hit; the cache was not exercised")
			}
			t.Logf("%d edits, %d of %d reads inside a window of fewer than %d versions",
				done.Load(), strict.Load(), readers*perReader, len(states))
		})
	}
}

// sameIntervals reports whether two sweeps cut the same intervals with the
// same facility lists.
func sameIntervals(a, b []IntervalResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To || !sameFacilityList(a[i].Result.Facilities, b[i].Result.Facilities) {
			return false
		}
	}
	return true
}

// sameFacilityList reports whether two results list the same facilities,
// costs and scores in the same order.
func sameFacilityList(a, b []core.Facility) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !a[i].Costs.Equal(b[i].Costs) || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}
