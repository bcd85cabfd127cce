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
// invalidation tests control exactly: facilities f0 on edge 0 and f1 on
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

// TestMaintainInvalidationPrecision pins the incremental half of the
// contract: a Maintainer insert kills exactly the cached entries whose
// query location or result facilities lie on the touched edge. The entry
// for an untouched facility survives; inserting on an edge no entry
// depends on evicts nothing.
func TestMaintainInvalidationPrecision(t *testing.T) {
	g := precisionGraph(t)
	net := FromGraph(g)
	net.EnableResultCache(CacheOptions{Entries: 64})
	ex := net.NewExecutor(ExecutorConfig{Workers: 1})

	// Nearest k=1 keeps each entry's tag set to {loc edge, result edge}.
	reqA := NearestRequest(Location{Edge: 0, T: 0.25}, 0, 1) // f0; tags {e0}
	reqB := NearestRequest(Location{Edge: 2, T: 0.75}, 0, 1) // f1; tags {e2}
	for _, r := range []BatchRequest{reqA, reqB} {
		if resp := ex.Do(ctx, r); resp.Err != nil {
			t.Fatalf("fill: %v", resp.Err)
		}
	}

	m, err := net.Maintain(ctx, Location{Edge: 1, T: 0.5})
	if err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	defer m.Close()

	// Insert on the empty edge 3: neither entry depends on it.
	if _, err := m.Insert(3, 0.5); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	hitsBefore, _ := net.ResultCacheStats()
	ex.Do(ctx, reqA)
	ex.Do(ctx, reqB)
	cs, _ := net.ResultCacheStats()
	if got := cs.Hits - hitsBefore.Hits; got != 2 {
		t.Fatalf("insert on unrelated edge evicted entries: %d hits of 2", got)
	}

	// Insert on edge 0: entry A (loc and result on e0) must die, entry B
	// must survive.
	if _, err := m.Insert(0, 0.1); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	before, _ := net.ResultCacheStats()
	respA := ex.Do(ctx, reqA)
	respB := ex.Do(ctx, reqB)
	if respA.Err != nil || respB.Err != nil {
		t.Fatalf("requery: %v / %v", respA.Err, respB.Err)
	}
	after, _ := net.ResultCacheStats()
	if respA.Cached {
		t.Fatalf("entry for touched edge 0 survived the insert")
	}
	if !respB.Cached {
		t.Fatalf("entry for untouched edge 2 was evicted")
	}
	if after.Invalidated-before.Invalidated != 1 {
		t.Fatalf("Invalidated delta = %d, want 1", after.Invalidated-before.Invalidated)
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

// TestFlushResultCache checks the strict fallback of the relaxed invalidation
// contract: after FlushResultCache a repeated query misses and recomputes an
// identical answer, and on a network without a cache the call does nothing.
func TestFlushResultCache(t *testing.T) {
	g := equivGraph(t, 7)
	net := FromGraph(g)
	net.EnableResultCache(CacheOptions{Entries: 64})
	ex := net.NewExecutor(ExecutorConfig{Workers: 1})
	req := SkylineRequest(RandomQueries(g, 1, 5)[0], WithEngine(CEA))

	first := ex.Do(ctx, req)
	repeat := ex.Do(ctx, req)
	if first.Err != nil || repeat.Err != nil {
		t.Fatalf("errs %v / %v", first.Err, repeat.Err)
	}
	if first.Cached || !repeat.Cached {
		t.Fatalf("cached = %v, %v; want a miss then a hit", first.Cached, repeat.Cached)
	}

	net.FlushResultCache()
	after := ex.Do(ctx, req)
	if after.Err != nil {
		t.Fatal(after.Err)
	}
	if after.Cached {
		t.Fatal("query after FlushResultCache was served from the cache")
	}
	if !bitEqualResults(first.Result, after.Result) {
		t.Fatal("recomputed result differs from the first computation")
	}
	if cs, _ := net.ResultCacheStats(); cs.Hits != 1 || cs.Misses != 2 {
		t.Fatalf("hits, misses = %d, %d; want 1, 2", cs.Hits, cs.Misses)
	}

	plain := FromGraph(g)
	plain.FlushResultCache()
	if _, ok := plain.ResultCacheStats(); ok || plain.ResultCache() != nil {
		t.Fatal("FlushResultCache attached a cache to a network without one")
	}
}
