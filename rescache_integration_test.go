package mcn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mcn/internal/core"
	"mcn/internal/rescache"
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

// randomRequest draws one request of a random kind with random parameters,
// mixing engines and the enhancement ablation so the cache key's variant
// bytes are exercised too.
func randomRequest(rng *rand.Rand, g *Graph, locs []Location) BatchRequest {
	loc := locs[rng.Intn(len(locs))]
	var opts []Option
	if rng.Intn(2) == 0 {
		opts = append(opts, WithEngine(CEA))
	}
	if rng.Intn(8) == 0 {
		opts = append(opts, func(o *core.Options) { o.NoEnhancements = true })
	}
	switch rng.Intn(4) {
	case 0:
		return SkylineRequest(loc, opts...)
	case 1:
		coef := make([]float64, g.D())
		for i := range coef {
			coef[i] = rng.Float64()
		}
		coef[rng.Intn(len(coef))] += 0.1 // keep at least one weight positive
		return TopKRequest(loc, WeightedSum(coef...), 1+rng.Intn(5), opts...)
	case 2:
		return NearestRequest(loc, rng.Intn(g.D()), 1+rng.Intn(4))
	default:
		budget := make([]float64, g.D())
		for i := range budget {
			budget[i] = 5 + 60*rng.Float64()
		}
		return WithinRequest(loc, Of(budget...), opts...)
	}
}

// TestCachedEquivalenceRandomized runs a Zipf-ish randomized workload (few
// distinct queries, many repetitions) through a cached and an uncached
// executor over the same graph and requires every response to be
// bit-identical — the cache must be observationally invisible.
func TestCachedEquivalenceRandomized(t *testing.T) {
	g := equivGraph(t, 7)
	plain := FromGraph(g)
	cached := FromGraph(g)
	cached.EnableResultCache(CacheOptions{Entries: 256})

	plainEx := plain.NewExecutor(ExecutorConfig{Workers: 1})
	cachedEx := cached.NewExecutor(ExecutorConfig{Workers: 1})

	rng := rand.New(rand.NewSource(11))
	locs := RandomQueries(g, 6, 3)

	// A small distinct-request pool replayed many times guarantees hits.
	reqs := make([]BatchRequest, 12)
	for i := range reqs {
		reqs[i] = randomRequest(rng, g, locs)
	}
	for i := 0; i < 120; i++ {
		req := reqs[rng.Intn(len(reqs))]
		want := plainEx.Do(ctx, req)
		got := cachedEx.Do(ctx, req)
		if want.Err != nil || got.Err != nil {
			t.Fatalf("query %d (%v): errs %v / %v", i, req.Kind, want.Err, got.Err)
		}
		if !bitEqualResults(want.Result, got.Result) {
			t.Fatalf("query %d (%v): cached result diverged from uncached", i, req.Kind)
		}
	}
	cs, ok := cached.ResultCacheStats()
	if !ok || cs.Hits == 0 {
		t.Fatalf("harness never hit the cache: %+v", cs)
	}
	if cs.Misses > int64(len(reqs)) {
		t.Fatalf("more misses (%d) than distinct requests (%d)", cs.Misses, len(reqs))
	}
}

// TestCachedEquivalenceScaledWeights checks the weight-normalization alias:
// a top-k query whose weight vector is a positive multiple of a cached one
// shares the entry and must return the same ranking with proportionally
// scaled scores.
func TestCachedEquivalenceScaledWeights(t *testing.T) {
	g := equivGraph(t, 7)
	net := FromGraph(g)
	net.EnableResultCache(CacheOptions{Entries: 64})
	ex := net.NewExecutor(ExecutorConfig{Workers: 1})
	loc := RandomQueries(g, 1, 5)[0]

	// The scaled vector must be an exact binary multiple (here 4x) for the
	// normalized keys to collide bit-for-bit; decimal multiples like 3x
	// produce different float bits and legitimately miss.
	base := ex.Do(ctx, TopKRequest(loc, WeightedSum(0.2, 0.3, 0.5), 5))
	scaled := ex.Do(ctx, TopKRequest(loc, WeightedSum(0.8, 1.2, 2.0), 5))
	if base.Err != nil || scaled.Err != nil {
		t.Fatalf("errs: %v / %v", base.Err, scaled.Err)
	}
	cs, _ := net.ResultCacheStats()
	if cs.Hits != 1 {
		t.Fatalf("scaled weight vector did not share the entry: %+v", cs)
	}
	for i, f := range base.Result.Facilities {
		sf := scaled.Result.Facilities[i]
		if f.ID != sf.ID {
			t.Fatalf("rank %d: id %d vs %d under scaled weights", i, f.ID, sf.ID)
		}
		if want := f.Score * 4; math.Abs(sf.Score-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("rank %d: score %g, want %g", i, sf.Score, want)
		}
	}
}

// timedepPair builds two identical time-dependent networks over g — one
// cached, one not — with the same rush-hour profiles attached.
func timedepPair(t *testing.T, g *Graph) (cached, plain *TimeNetwork, cache *ResultCache) {
	t.Helper()
	cached, plain = TimeDependent(g), TimeDependent(g)
	for e := 0; e < g.NumEdges(); e += 7 {
		p := TimeProfile{
			Times: []float64{8, 10},
			Mult:  []Costs{Of(3, 1, 2), Of(1, 1, 1)},
		}
		if err := cached.SetProfile(EdgeID(e), p); err != nil {
			t.Fatalf("SetProfile: %v", err)
		}
		if err := plain.SetProfile(EdgeID(e), p); err != nil {
			t.Fatalf("SetProfile: %v", err)
		}
	}
	c := rescache.New(CacheOptions{Entries: 256})
	cached.EnableResultCache(c)
	return cached, plain, c
}

// TestCachedEquivalenceTimeDependent replays random instant queries of all
// four kinds against cached and uncached time-dependent networks and
// requires bit-identical results. Instants are drawn from a small pool so
// interval-keyed entries are hit both at the exact same instant and at
// different instants inside the same elementary interval.
func TestCachedEquivalenceTimeDependent(t *testing.T) {
	g := equivGraph(t, 9)
	cached, plain, cache := timedepPair(t, g)
	rng := rand.New(rand.NewSource(13))
	locs := RandomQueries(g, 4, 17)
	agg := WeightedSum(0.5, 0.2, 0.3)
	times := []float64{2, 8.5, 9.9, 25}

	for i := 0; i < 80; i++ {
		loc := locs[rng.Intn(len(locs))]
		at := times[rng.Intn(len(times))] + rng.Float64()*0.05 // same interval, jittered instant
		var want, got *Result
		var errW, errG error
		switch i % 4 {
		case 0:
			want, errW = plain.SkylineAt(ctx, loc, at, QueryOptions())
			got, errG = cached.SkylineAt(ctx, loc, at, QueryOptions())
		case 1:
			want, errW = plain.TopKAt(ctx, loc, agg, 4, at, QueryOptions())
			got, errG = cached.TopKAt(ctx, loc, agg, 4, at, QueryOptions())
		case 2:
			want, errW = plain.NearestAt(ctx, loc, i%3, 3, at, QueryOptions())
			got, errG = cached.NearestAt(ctx, loc, i%3, 3, at, QueryOptions())
		default:
			want, errW = plain.WithinAt(ctx, loc, Of(40, 40, 40), at, QueryOptions())
			got, errG = cached.WithinAt(ctx, loc, Of(40, 40, 40), at, QueryOptions())
		}
		if errW != nil || errG != nil {
			t.Fatalf("query %d: errs %v / %v", i, errW, errG)
		}
		if !bitEqualResults(want, got) {
			t.Fatalf("query %d at t=%g: cached timedep result diverged", i, at)
		}
	}
	if cs := cache.Stats(); cs.Hits == 0 {
		t.Fatalf("timedep harness never hit the cache: %+v", cs)
	}
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
