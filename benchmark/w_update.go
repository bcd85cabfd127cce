package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Kinds of update_mix operations; the values are also the span names of the
// traced pass.
const (
	opReadStatic  = "read.static"
	opReadTimedep = "read.timedep"
	opSetProfile  = "timedep.setprofile"
	opInsert      = "dynamic.insert"
	opDelete      = "dynamic.delete"
)

// updateMixBlock is the operation mix per hundred: 92 reads, 8 writes.
var updateMixBlock = []struct {
	kind  string
	share int
}{{opReadStatic, 62}, {opReadTimedep, 30}, {opSetProfile, 2}, {opInsert, 3}, {opDelete, 3}}

// updateOp is one operation of the sequence.
type updateOp struct {
	kind    string
	key     int         // reads: which key
	edge    EdgeID      // writes: which edge
	t       float64     // insert: where on the edge
	profile TimeProfile // setprofile
	target  Handle      // delete
}

// staticKey and timedepKey are the read keys: fixed edges, the seed's
// position on them.
type staticKey struct {
	req  BatchRequest
	loc  Location
	want uint64
	have bool
}

type timedepKey struct {
	loc     Location
	instant float64
	weights []float64 // nil = skyline, else top-4
}

// updateState is one set-up of update_mix: a static network over sf25 and a
// time-dependent network over td2k sharing one result cache, an executor on
// the first and a maintainer at a fixed location.
type updateState struct {
	net   *Network
	ex    *Executor
	tn    *TimeNetwork
	cache *ResultCache
	mt    *Maintainer
}

func (s *updateState) close() { s.mt.Close() }

func randomProfile(rng *rand.Rand) TimeProfile {
	p := TimeProfile{Times: profileTimes}
	for range profileTimes {
		m := make(Costs, costTypes)
		for j := range m {
			m[j] = 0.5 + 2.5*rng.Float64()
		}
		p.Mult = append(p.Mult, m)
	}
	return p
}

// newUpdateState is update_mix's set-up: compile the flat path and the
// pruning index, attach the cache, profile 32 fixed edges, compile the
// overlay, materialise the maintainer.
func newUpdateState(e *env, big, small *instance) (*updateState, error) {
	s := &updateState{net: fromGraph(big.g), tn: timeDependent(small.g)}
	s.cache = s.net.EnableResultCache(CacheOptions{})
	s.ex = s.net.NewExecutor(ExecutorConfig{Workers: 1})
	s.tn.EnableResultCache(s.cache)
	rng := rand.New(rand.NewSource(datasetSeed))
	for i := 0; i < 32; i++ {
		if err := s.tn.SetProfile(EdgeID(rng.Intn(small.g.NumEdges())), randomProfile(rng)); err != nil {
			return nil, err
		}
	}
	if err := compileTimeNetwork(e, s.tn, small.places[0]); err != nil {
		return nil, err
	}
	var err error
	if s.mt, err = s.net.Maintain(e.ctx, big.places[0]); err != nil {
		return nil, fmt.Errorf("materialise maintainer: %w", err)
	}
	return s, nil
}

// updateSequence builds the run's operations: a fixed multiset (so the work
// is the same under every seed) in a seeded order, with seeded keys,
// positions, weights, profiles and targets.
func updateSequence(big, small *instance, seed int64, n int) ([]updateOp, []staticKey, []timedepKey) {
	rng := rand.New(rand.NewSource(seed))
	statics := make([]staticKey, updateKeys)
	for k := range statics {
		loc := big.place(k, rng)
		statics[k] = staticKey{req: skylineRequest(loc, withEngine(engineCEA)), loc: loc}
	}
	timedeps := make([]timedepKey, updateKeys)
	for k := range timedeps {
		timedeps[k] = timedepKey{
			loc:     small.place(k, rng),
			instant: updateInstants[k%len(updateInstants)],
		}
		if k%2 == 1 {
			timedeps[k].weights = []float64{0.1 + rng.Float64(), 0.1 + rng.Float64(), 0.1 + rng.Float64(), 0.1 + rng.Float64()}
		}
	}
	z := newZipf(updateKeys, zipfS)
	targets := rng.Perm(big.g.NumFacilities())
	ops := make([]updateOp, 0, n)
	for len(ops) < n {
		for _, b := range updateMixBlock {
			for i := 0; i < b.share; i++ {
				ops = append(ops, updateOp{kind: b.kind})
			}
		}
	}
	ops = ops[:n]
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	inserted, deleted := 0, 0
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opReadStatic, opReadTimedep:
			op.key = z.draw(rng)
		case opSetProfile:
			op.edge, op.profile = EdgeID(rng.Intn(small.g.NumEdges())), randomProfile(rng)
		case opInsert:
			// On the edge of one of the 32 hottest read keys, in turn: the
			// invalidation has something to kill, and the probes an insert
			// costs (they depend on the edge) are the same under every seed.
			op.edge, op.t = statics[inserted%32].loc.Edge, rng.Float64()
			inserted++
		case opDelete:
			op.target = Handle(targets[deleted%len(targets)])
			deleted++
		}
	}
	return ops, statics, timedeps
}

// runTimedep answers a time-dependent read; uncached runs it past the result
// cache (a progressive callback makes the query uncacheable) on the same
// compiled overlay, which is what a cached answer must equal.
func runTimedep(e *env, tn *TimeNetwork, k timedepKey, uncached bool) (*Result, error) {
	opt := queryOptions(withEngine(engineCEA))
	if uncached {
		opt = queryOptions(withEngine(engineCEA), progressive(func(Facility) {}))
	}
	if k.weights != nil {
		return tn.TopKAt(e.ctx, k.loc, weightedSum(k.weights...), 4, k.instant, opt)
	}
	return tn.SkylineAt(e.ctx, k.loc, k.instant, opt)
}

// updatePass runs ops on s with one client and returns the latency, in ms,
// of every correct operation by kind. Reads are checked: a static read
// against the uncached facade answer for its key (the first eight keys also
// against the brute-force baseline), every eighth time-dependent read
// against the uncached answer at that moment. Checking happens between the
// timed operations.
func updatePass(e *env, s *updateState, big *instance, ops []updateOp, statics []staticKey, timedeps []timedepKey, tr *tracer) (map[string][]float64, error) {
	lat := map[string][]float64{}
	brute := bruteChecksSF25
	for i, op := range ops {
		var err error
		ok := true
		var start, end time.Time
		switch op.kind {
		case opReadStatic:
			k := &statics[op.key]
			start = time.Now()
			resp := s.ex.Do(e.ctx, k.req)
			end = time.Now()
			if err = resp.Err; err != nil {
				break
			}
			if !k.have {
				res, err := s.net.Skyline(e.ctx, k.loc, withEngine(engineCEA))
				if err != nil {
					return nil, err
				}
				k.want, k.have = digestOf(kindSkyline, res), true
				if brute > 0 {
					brute--
					b, _, err := big.brute(e.ctx, &Request{Kind: kindSkyline, Edge: int(k.loc.Edge), T: k.loc.T})
					if err != nil {
						return nil, err
					}
					if digest(kindSkyline, b) != k.want {
						return nil, fmt.Errorf("facade and brute-force baseline disagree at edge %d", k.loc.Edge)
					}
				}
			}
			ok = digestOf(kindSkyline, resp.Result) == k.want
		case opReadTimedep:
			k := timedeps[op.key]
			start = time.Now()
			res, rerr := runTimedep(e, s.tn, k, false)
			end = time.Now()
			if err = rerr; err != nil {
				break
			}
			if i%8 == 0 {
				want, err := runTimedep(e, s.tn, k, true)
				if err != nil {
					return nil, err
				}
				kind := kindSkyline
				if k.weights != nil {
					kind = kindTopK
				}
				ok = digestOf(kind, res) == digestOf(kind, want)
			}
		case opSetProfile:
			start = time.Now()
			err = s.tn.SetProfile(op.edge, op.profile)
			end = time.Now()
		case opInsert:
			start = time.Now()
			_, err = s.mt.Insert(op.edge, op.t)
			end = time.Now()
		case opDelete:
			start = time.Now()
			err = s.mt.Delete(op.target)
			end = time.Now()
		}
		e.rep.attempted++
		if err != nil || !ok {
			e.rep.failed++
			continue
		}
		lat[op.kind] = append(lat[op.kind], msBetween(start, end))
		if tr != nil {
			tr.add(op.kind, i, start, end)
		}
	}
	return lat, nil
}

// update_mix: 90 % cached reads, 10 % writes that invalidate — SetProfile on
// a time-dependent network (the next read recompiles the overlay), facility
// inserts and deletes through a maintainer on a static one.
func runUpdateMix(e *env) error {
	nOps := max(int(updateMixOpsPerSec*e.seconds), 200)
	big, err := newInstance(sf25Nodes, sf25Facilities, updateKeys)
	if err != nil {
		return err
	}
	small, err := newInstance(td2kNodes, td2kFacilities, updateKeys)
	if err != nil {
		return err
	}
	e.rep.set("gen.generate_s", big.genS+small.genS)
	ops, statics, timedeps := updateSequence(big, small, e.seed, nOps)

	report := func(lat map[string][]float64) {
		reads := append(append([]float64(nil), lat[opReadStatic]...), lat[opReadTimedep]...)
		writes := append(append(append([]float64(nil), lat[opSetProfile]...), lat[opInsert]...), lat[opDelete]...)
		sort.Float64s(reads)
		sort.Float64s(writes)
		e.queryLatency(reads)
		e.rep.set("update_p50_ms", percentile(writes, 0.5))
		if total := sum(reads) + sum(writes); total > 0 {
			e.rep.set("throughput_qps", float64(len(reads)+len(writes))/(total/1000))
		}
	}

	if !e.traced {
		var s *updateState
		var setups []float64
		for r := 0; r < setupRepeats; r++ {
			if s != nil {
				s.close()
			}
			start := time.Now()
			if s, err = newUpdateState(e, big, small); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		defer s.close()
		e.setup(setups)
		lat, err := updatePass(e, s, big, ops, statics, timedeps, nil)
		if err != nil {
			return err
		}
		report(lat)
		return nil
	}

	// Traced: the head of the sequence untraced on one set-up (allocation
	// counts, tracing overhead), then the whole sequence traced on a fresh
	// one, so both start from the same state.
	flatCosts(e, big.g)
	head := ops[:nOps/4]
	s, err := newUpdateState(e, big, small)
	if err != nil {
		return err
	}
	var headLat map[string][]float64
	allocs, bytes := memDelta(func() { headLat, err = updatePass(e, s, big, head, statics, timedeps, nil) })
	s.close()
	if err != nil {
		return err
	}
	e.rep.set("runtime.allocs_per_query", allocs/float64(len(head)))
	e.rep.set("runtime.alloc_bytes_per_query", bytes/float64(len(head)))

	if s, err = newUpdateState(e, big, small); err != nil {
		return err
	}
	defer s.close()
	before := s.cache.Stats()
	lat, err := updatePass(e, s, big, ops, statics, timedeps, e.tr)
	if err != nil {
		return err
	}
	report(lat)
	after := s.cache.Stats()
	spans := e.finishTrace()

	var headTotal, tracedHeadTotal float64
	for _, l := range headLat {
		headTotal += sum(l)
	}
	for _, sp := range spans {
		if sp.Req < len(head) {
			tracedHeadTotal += float64(sp.End-sp.Start) / 1e6
		}
	}
	if headTotal > 0 && tracedHeadTotal > 0 {
		e.rep.set("trace.overhead_pct", 100*(tracedHeadTotal-headTotal)/tracedHeadTotal)
	}

	writes := float64(len(lat[opSetProfile]) + len(lat[opInsert]) + len(lat[opDelete]))
	reportCache(e.rep, before, after)
	if writes > 0 {
		e.rep.set("rescache.invalidated_per_update", float64(after.Invalidated-before.Invalidated)/writes)
	}
	e.rep.set("dynamic.insert_us", 1e3*mean(lat[opInsert]))
	e.rep.set("dynamic.delete_us", 1e3*mean(lat[opDelete]))
	e.rep.set("timedep.setprofile_us", 1e3*mean(lat[opSetProfile]))
	// The invalidation itself, replayed on the pass's own cache: stamping the
	// edge tag of every insert.
	var inserts []updateOp
	for _, op := range ops {
		if op.kind == opInsert {
			inserts = append(inserts, op)
		}
	}
	e.rep.set("rescache.invalidate_us", timeEach(inserts, func(op updateOp) { s.cache.Invalidate(edgeTag(op.edge)) }))
	return nil
}
