package mcn

import (
	"math"
	"sync"
	"testing"
)

// bitEqualResults reports bit-for-bit equality of two results: same
// facilities in the same order with bit-identical cost/score floats (NaN
// components compare by bits, so "unknown" equals "unknown"), and the same
// work statistics. This is the cache's byte-identity contract: a hit must
// be indistinguishable from running the query.
func bitEqualResults(a, b *Result) bool {
	if a.Stats != b.Stats || len(a.Facilities) != len(b.Facilities) {
		return false
	}
	for i, fa := range a.Facilities {
		fb := b.Facilities[i]
		if fa.ID != fb.ID || len(fa.Costs) != len(fb.Costs) {
			return false
		}
		if math.Float64bits(fa.Score) != math.Float64bits(fb.Score) {
			return false
		}
		for j := range fa.Costs {
			if math.Float64bits(fa.Costs[j]) != math.Float64bits(fb.Costs[j]) {
				return false
			}
		}
	}
	return true
}

// equivGraph builds the randomized harness's network once per test.
func equivGraph(t *testing.T, seed int64) *Graph {
	t.Helper()
	g, err := Synthetic(SyntheticConfig{Nodes: 600, Facilities: 150, D: 3, Seed: seed})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	return g
}

// precisionGraph is a hand-built chain whose facility placement the
// cache contract tests control exactly: facilities f0 on edge 0 and f1 on
// edge 2, with edge 3 kept empty.
//
//	n0 --e0[f0]-- n1 --e1-- n2 --e2[f1]-- n3 --e3-- n4
func precisionGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(2, false)
	var n [5]NodeID
	for i := range n {
		n[i] = b.AddNode(float64(i), 0)
	}
	e0 := b.AddEdge(n[0], n[1], Of(1, 2))
	b.AddEdge(n[1], n[2], Of(2, 1))
	e2 := b.AddEdge(n[2], n[3], Of(1, 1))
	b.AddEdge(n[3], n[4], Of(3, 3))
	b.AddFacility(e0, 0.5)
	b.AddFacility(e2, 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// TestMaintainerUpdatesInvalidateNothing pins the static half of the
// contract: a Maintainer's inserts and deletes stay in its own facility
// set, so they touch no cached entry. Inserts on the edges the entries'
// locations and results lie on and on an unrelated edge, then deletes of
// every maintained facility, leave every entry a hit, move Invalidated not
// at all, and each hit is the network's uncached answer bit for bit.
func TestMaintainerUpdatesInvalidateNothing(t *testing.T) {
	g := precisionGraph(t)
	net := FromGraph(g)
	net.EnableResultCache(CacheOptions{Entries: 64})
	ex := net.NewExecutor(ExecutorConfig{Workers: 1})

	reqs := []BatchRequest{
		NearestRequest(Location{Edge: 0, T: 0.25}, 0, 1), // f0, on edge 0
		NearestRequest(Location{Edge: 2, T: 0.75}, 0, 1), // f1, on edge 2
		SkylineRequest(Location{Edge: 0, T: 0.25}),
		TopKRequest(Location{Edge: 2, T: 0.75}, WeightedSum(1, 1), 2),
		WithinRequest(Location{Edge: 1, T: 0.5}, Of(10, 10)),
	}
	for _, r := range reqs {
		if resp := ex.Do(ctx, r); resp.Err != nil {
			t.Fatalf("fill: %v", resp.Err)
		}
	}

	m, err := net.Maintain(ctx, Location{Edge: 1, T: 0.5})
	if err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	defer m.Close()
	before, _ := net.ResultCacheStats()
	for _, e := range []EdgeID{0, 2, 3} { // edge 3 carries no entry
		if _, err := m.Insert(e, 0.1); err != nil {
			t.Fatalf("Insert on edge %d: %v", e, err)
		}
	}
	all, _, err := m.TopK(WeightedSum(1, 1), 10)
	if err != nil {
		t.Fatalf("maintained TopK: %v", err)
	}
	if len(all) != 5 {
		t.Fatalf("maintainer holds %d facilities, want 2 initial and 3 inserted", len(all))
	}
	for _, f := range all {
		if err := m.Delete(f.Handle); err != nil {
			t.Fatalf("Delete %d: %v", f.Handle, err)
		}
	}

	for i, r := range reqs {
		resp := ex.Do(ctx, r)
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		if !resp.Cached {
			t.Fatalf("request %d: entry did not survive the maintainer's updates", i)
		}
		// A progressive callback makes the request uncacheable: the same
		// executor runs it against the network.
		r.Opts.OnResult = func(Facility) {}
		fresh := ex.Do(ctx, r)
		if fresh.Err != nil || fresh.Cached {
			t.Fatalf("request %d uncached: err %v, cached %v", i, fresh.Err, fresh.Cached)
		}
		if !bitEqualResults(resp.Result, fresh.Result) {
			t.Fatalf("request %d: hit differs from the uncached answer", i)
		}
	}
	after, _ := net.ResultCacheStats()
	if after.Invalidated != before.Invalidated {
		t.Fatalf("Invalidated moved by %d under maintainer updates", after.Invalidated-before.Invalidated)
	}
}

// TestSetProfileInvalidationPrecision pins the time-dependent half: a
// profile edit that keeps the breakpoint axis invalidates only the
// elementary intervals whose effective costs changed; an axis-changing
// edit invalidates the whole time-dependent class but never static
// entries sharing the cache.
func TestSetProfileInvalidationPrecision(t *testing.T) {
	g := precisionGraph(t)
	net := FromGraph(g)
	cache := net.EnableResultCache(CacheOptions{Entries: 64})
	ex := net.NewExecutor(ExecutorConfig{Workers: 1})

	tn := TimeDependent(g)
	tn.EnableResultCache(cache)
	if err := tn.SetProfile(1, TimeProfile{
		Times: []float64{10, 20},
		Mult:  []Costs{Of(2, 2), Of(3, 3)},
	}); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}

	loc := Location{Edge: 0, T: 0.5}
	fill := func() {
		for _, at := range []float64{5, 15, 25} { // intervals 0, 1, 2
			if _, err := tn.SkylineAt(ctx, loc, at, QueryOptions()); err != nil {
				t.Fatalf("SkylineAt: %v", err)
			}
		}
	}
	hit := func(at float64) bool {
		before := cache.Stats()
		if _, err := tn.SkylineAt(ctx, loc, at, QueryOptions()); err != nil {
			t.Fatalf("SkylineAt: %v", err)
		}
		return cache.Stats().Hits == before.Hits+1
	}
	fill()

	// Same axis, only the [20, inf) multiplier changes: interval 2 dies,
	// intervals 0 and 1 survive.
	if err := tn.SetProfile(1, TimeProfile{
		Times: []float64{10, 20},
		Mult:  []Costs{Of(2, 2), Of(5, 5)},
	}); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	if !hit(5) || !hit(15) {
		t.Fatalf("untouched intervals were invalidated by a same-axis edit")
	}
	if hit(25) {
		t.Fatalf("edited interval survived the profile edit")
	}

	// The recomputed entry must match a fresh uncached network.
	fresh := TimeDependent(g)
	if err := fresh.SetProfile(1, TimeProfile{
		Times: []float64{10, 20},
		Mult:  []Costs{Of(2, 2), Of(5, 5)},
	}); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	want, err := fresh.SkylineAt(ctx, loc, 25, QueryOptions())
	if err != nil {
		t.Fatalf("SkylineAt: %v", err)
	}
	got, err := tn.SkylineAt(ctx, loc, 25, QueryOptions())
	if err != nil {
		t.Fatalf("SkylineAt: %v", err)
	}
	if !bitEqualResults(want, got) {
		t.Fatalf("post-edit cached result diverged from fresh network")
	}

	// Axis change: every timedep entry dies, static entries survive.
	static := NearestRequest(Location{Edge: 0, T: 0.25}, 0, 1)
	ex.Do(ctx, static) // fill a static entry in the shared cache
	if err := tn.SetProfile(1, TimeProfile{
		Times: []float64{10, 20, 30},
		Mult:  []Costs{Of(2, 2), Of(5, 5), Of(7, 7)},
	}); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	if hit(5) {
		t.Fatalf("timedep entry survived an axis-changing edit")
	}
	if resp := ex.Do(ctx, static); !resp.Cached {
		t.Fatalf("static entry was killed by a timedep axis change")
	}
}

// TestThunderingHerdSingleExpansion pins the coalescing contract under the
// race detector: a herd of goroutines issuing the same cold query through
// one executor performs the expansion exactly once — every other caller
// either coalesces onto the in-flight computation or hits the entry it
// filled.
func TestThunderingHerdSingleExpansion(t *testing.T) {
	g := equivGraph(t, 21)
	net := FromGraph(g)
	net.EnableResultCache(CacheOptions{Entries: 64})
	ex := net.NewExecutor(ExecutorConfig{Workers: 8})
	req := SkylineRequest(RandomQueries(g, 1, 23)[0], WithEngine(CEA))

	const herd = 24
	results := make([]*Result, herd)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp := ex.Do(ctx, req)
			if resp.Err != nil {
				t.Errorf("herd query: %v", resp.Err)
				return
			}
			results[i] = resp.Result
		}(i)
	}
	close(start)
	wg.Wait()

	cs, _ := net.ResultCacheStats()
	if cs.Misses != 1 {
		t.Fatalf("cold popular key expanded %d times; want 1 (%+v)", cs.Misses, cs)
	}
	if cs.Hits+cs.Coalesced != herd-1 {
		t.Fatalf("hits+coalesced = %d, want %d (%+v)", cs.Hits+cs.Coalesced, herd-1, cs)
	}
	for i := 1; i < herd; i++ {
		if !bitEqualResults(results[0], results[i]) {
			t.Fatalf("herd member %d saw a different result", i)
		}
	}
}

// TestCachedEquivalenceScaledWeights pins that the cache answers only the
// identical request: on one cached executor, top-k with weights (1,2,3) and
// then (3,6,9), proportional but scoring differently. The second request
// misses, and both answers equal those of an executor on a network without
// a cache, bit for bit: scores, order and work statistics.
func TestCachedEquivalenceScaledWeights(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{Nodes: 2000, Facilities: 400, D: 3, Seed: 3})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	cachedNet, plainNet := FromGraph(g), FromGraph(g)
	cachedNet.EnableResultCache(CacheOptions{})
	cached := cachedNet.NewExecutor(ExecutorConfig{Workers: 1})
	plain := plainNet.NewExecutor(ExecutorConfig{Workers: 1})
	for i, loc := range RandomQueries(g, 50, 3) {
		for _, w := range [][]float64{{1, 2, 3}, {3, 6, 9}} {
			req := TopKRequest(loc, WeightedSum(w...), 8)
			got, want := cached.Do(ctx, req), plain.Do(ctx, req)
			if got.Err != nil || want.Err != nil {
				t.Fatalf("query %d, weights %v: errs %v / %v", i, w, got.Err, want.Err)
			}
			if got.Cached {
				t.Fatalf("query %d, weights %v: served from the cache; want a miss", i, w)
			}
			if !bitEqualResults(got.Result, want.Result) {
				t.Fatalf("query %d, weights %v: cached executor answered\n%v\nuncached\n%v", i, w, got.Result, want.Result)
			}
		}
	}
	if cs, _ := cachedNet.ResultCacheStats(); cs.Hits != 0 || cs.Misses != 100 {
		t.Fatalf("cache %v; want 100 misses and no hit", cs)
	}
	if _, ok := plainNet.ResultCacheStats(); ok || plainNet.ResultCache() != nil {
		t.Fatal("the uncached network reports a result cache")
	}
}
