package rescache

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcn/internal/core"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// Lookup probes the cache without computing; ok reports a live hit. It
// obeys the same staleness rules as do (a stale entry is discarded and
// reported as a miss) but does not touch the hit/miss counters, so probes
// from tests do not skew serving statistics.
func (c *Cache) Lookup(key string) (*core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	if c.stale(e.ver, e.tags) {
		c.kill(e)
		c.invalidated.Add(1)
		return nil, false
	}
	e.ref = true
	return e.res, true
}

var bg = context.Background()

func mkResult(id int) *core.Result {
	return &core.Result{Facilities: []core.Facility{{ID: graph.FacilityID(id)}}}
}

func fill(id int, tags ...Tag) func() (*core.Result, []Tag, error) {
	return func() (*core.Result, []Tag, error) { return mkResult(id), tags, nil }
}

func TestHitMissBasics(t *testing.T) {
	c := New(Options{Entries: 8})
	v, hit, err := c.do(bg, "a", fill(1))
	if err != nil || hit {
		t.Fatalf("first Do: hit=%v err=%v", hit, err)
	}
	if v.Facilities[0].ID != 1 {
		t.Fatalf("wrong value: %+v", v)
	}
	v2, hit, err := c.do(bg, "a", fill(2))
	if err != nil || !hit {
		t.Fatalf("second Do: hit=%v err=%v", hit, err)
	}
	if v2 != v {
		t.Fatalf("hit did not return the cached result pointer")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Len() != 1 || c.Capacity() != 8 {
		t.Fatalf("Len = %d, Capacity = %d", c.Len(), c.Capacity())
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(Options{Entries: 8})
	boom := errors.New("boom")
	_, _, err := c.do(bg, "a", func() (*core.Result, []Tag, error) { return nil, nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached")
	}
	_, hit, err := c.do(bg, "a", fill(1))
	if err != nil || hit {
		t.Fatalf("retry after error: hit=%v err=%v", hit, err)
	}
}

func TestTagInvalidation(t *testing.T) {
	c := New(Options{Entries: 8})
	c.do(bg, "a", fill(1, EdgeTag(10)))
	c.do(bg, "b", fill(2, EdgeTag(20)))

	c.Invalidate(EdgeTag(10))

	if _, ok := c.Lookup("a"); ok {
		t.Fatalf("entry with invalidated tag survived")
	}
	if _, ok := c.Lookup("b"); !ok {
		t.Fatalf("untouched entry was killed")
	}
	if inv := c.Stats().Invalidated; inv != 1 {
		t.Fatalf("Invalidated = %d", inv)
	}
}

// An entry stored with no tags depends on nothing an Invalidate can name:
// it survives every interval and class tag.
func TestUntaggedEntrySurvivesInvalidate(t *testing.T) {
	c := New(Options{Entries: 8})
	c.do(bg, "static", fill(1))
	c.do(bg, "timed", fill(2, IntervalTag(3), ClassTimeDep))
	for k := range 64 {
		c.Invalidate(IntervalTag(k))
	}
	c.Invalidate(ClassTimeDep, Superseded)
	if _, ok := c.Lookup("timed"); ok {
		t.Fatalf("tagged entry survived the invalidation of its tags")
	}
	if _, ok := c.Lookup("static"); !ok {
		t.Fatalf("untagged entry was killed by Invalidate")
	}
}

// Query with a nil tags function stores the computed result untagged and
// serves the next identical query from it.
func TestQueryNilTagsStores(t *testing.T) {
	c := New(Options{Entries: 8})
	spec := KeySpec{Kind: KindSkyline, Interval: -1}
	loc := graph.Location{Edge: 3, T: 0.5}
	runs := 0
	run := func() (*core.Result, error) {
		runs++
		return mkResult(7), nil
	}
	first, hit, err := c.Query(bg, spec, loc, core.Options{}, run, nil)
	if err != nil || hit {
		t.Fatalf("first Query: hit=%v err=%v", hit, err)
	}
	second, hit, err := c.Query(bg, spec, loc, core.Options{}, run, nil)
	if err != nil || !hit {
		t.Fatalf("second Query: hit=%v err=%v", hit, err)
	}
	if second != first || runs != 1 || c.Len() != 1 {
		t.Fatalf("second Query: same result %v, %d runs, %d entries; want true, 1, 1", second == first, runs, c.Len())
	}
}

func TestInvalidateDuringCompute(t *testing.T) {
	c := New(Options{Entries: 8})
	// The invalidation lands while the computation is running: the result
	// must be returned to the caller but never cached.
	v, hit, err := c.do(bg, "a", func() (*core.Result, []Tag, error) {
		c.Invalidate(EdgeTag(5))
		return mkResult(1), []Tag{EdgeTag(5)}, nil
	})
	if err != nil || hit || v == nil {
		t.Fatalf("Do: hit=%v err=%v", hit, err)
	}
	if _, ok := c.Lookup("a"); ok {
		t.Fatalf("stale-at-insert entry was cached")
	}
}

// A Superseded value, or one an invalidation raced, reaches its computing
// caller and is never stored, and a waiter coalesced onto it looks the key
// up again instead of sharing it: the value may predate an update that
// landed before the waiter arrived.
func TestSupersededNotSharedOrStored(t *testing.T) {
	for name, tags := range map[string]func(*Cache) []Tag{
		"superseded":                  func(*Cache) []Tag { return []Tag{Superseded} },
		"invalidated while computing": func(c *Cache) []Tag { c.Invalidate(EdgeTag(5)); return []Tag{EdgeTag(5)} },
	} {
		t.Run(name, func(t *testing.T) {
			c := New(Options{Entries: 8})
			entered, gate := make(chan struct{}), make(chan struct{})
			var leader *core.Result
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				leader, _, _ = c.do(bg, "hot", func() (*core.Result, []Tag, error) {
					close(entered)
					<-gate
					return mkResult(1), tags(c), nil
				})
			}()
			<-entered
			var waiter *core.Result
			wg.Add(1)
			go func() {
				defer wg.Done()
				waiter, _, _ = c.do(bg, "hot", fill(2))
			}()
			for c.Stats().Coalesced == 0 {
				runtime.Gosched()
			}
			close(gate)
			wg.Wait()
			if leader.Facilities[0].ID != 1 {
				t.Fatalf("leader got %+v, want its own value", leader)
			}
			if waiter.Facilities[0].ID != 2 {
				t.Fatalf("waiter shared the leader's unstored value %+v instead of computing its own", waiter)
			}
			if v, ok := c.Lookup("hot"); !ok || v.Facilities[0].ID != 2 {
				t.Fatalf("cached %+v (ok=%v), want only the waiter's value", v, ok)
			}
		})
	}
}

func TestClockEviction(t *testing.T) {
	c := New(Options{Entries: 4})
	for i := 0; i < 4; i++ {
		c.do(bg, fmt.Sprintf("k%d", i), fill(i))
	}
	// Touch k0 so it carries a reference bit; k1 is the sweep victim.
	if _, ok := c.Lookup("k0"); !ok {
		t.Fatalf("k0 missing before eviction")
	}
	c.do(bg, "k4", fill(4))
	if _, ok := c.Lookup("k0"); !ok {
		t.Fatalf("referenced entry k0 was evicted before unreferenced ones")
	}
	if _, ok := c.Lookup("k1"); ok {
		t.Fatalf("expected k1 to be the CLOCK victim")
	}
	if ev := c.Stats().Evicted; ev != 1 {
		t.Fatalf("Evicted = %d", ev)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d after eviction", c.Len())
	}
}

func TestDeadSlotsReusedWithoutEvicting(t *testing.T) {
	c := New(Options{Entries: 4})
	for i := 0; i < 4; i++ {
		c.do(bg, fmt.Sprintf("k%d", i), fill(i, EdgeTag(graph.EdgeID(i))))
	}
	c.Invalidate(EdgeTag(graph.EdgeID(2)))
	c.Lookup("k2") // lazy kill
	c.do(bg, "k9", fill(9))
	if ev := c.Stats().Evicted; ev != 0 {
		t.Fatalf("reusing a dead slot counted as eviction: %d", ev)
	}
	for _, k := range []string{"k0", "k1", "k3", "k9"} {
		if _, ok := c.Lookup(k); !ok {
			t.Fatalf("live entry %s lost when reusing dead slot", k)
		}
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := New(Options{Entries: 8})
	const herd = 32
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.do(bg, "hot", func() (*core.Result, []Tag, error) {
				computes.Add(1)
				<-gate
				return mkResult(7), nil, nil
			})
			if err != nil || v.Facilities[0].ID != 7 {
				t.Errorf("coalesced Do: v=%+v err=%v", v, err)
			}
		}()
	}
	// Let the herd pile up on the inflight record, then release the leader.
	for c.Stats().Coalesced < herd-1 && computes.Load() <= 1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("cold key computed %d times; want 1", n)
	}
	st := c.Stats()
	if st.Coalesced != herd-1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPanicReleasesWaiters(t *testing.T) {
	c := New(Options{Entries: 8})
	entered := make(chan struct{})
	finish := make(chan struct{})
	var waitErr error
	go func() {
		defer func() { recover(); close(finish) }()
		c.do(bg, "hot", func() (*core.Result, []Tag, error) {
			close(entered)
			// Give the waiter time to register on the inflight record.
			for c.Stats().Coalesced == 0 {
				runtime.Gosched()
			}
			panic("query blew up")
		})
	}()
	<-entered // the panicking goroutine is the leader before the waiter starts
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, waitErr = c.do(bg, "hot", fill(1))
	}()
	<-finish
	wg.Wait()
	if !errors.Is(waitErr, ErrComputePanic) {
		t.Fatalf("waiter error = %v; want ErrComputePanic", waitErr)
	}
	// The key must be retryable afterwards.
	if _, _, err := c.do(bg, "hot", fill(2)); err != nil {
		t.Fatalf("retry after panic: %v", err)
	}
}

// A waiter does not inherit its leader's deadline: when the computation it
// coalesced onto ends with the leader's context error, the waiter goes round
// again and runs its own compute, under its own context, rather than fail
// with an error that is not its own. Any other error is still shared.
func TestWaiterOutlivesLeaderContext(t *testing.T) {
	for _, leaderErr := range []error{
		fmt.Errorf("engine: %w", context.DeadlineExceeded),
		context.Canceled,
		errors.New("core: the leader's own failure"),
	} {
		c := New(Options{Entries: 8})
		entered := make(chan struct{})
		go c.do(bg, "hot", func() (*core.Result, []Tag, error) {
			close(entered)
			for c.Stats().Coalesced == 0 { // the waiter registered on the flight
				runtime.Gosched()
			}
			return nil, nil, leaderErr
		})
		<-entered
		var ran atomic.Int64
		v, hit, err := c.do(bg, "hot", func() (*core.Result, []Tag, error) {
			ran.Add(1)
			return mkResult(2), nil, nil
		})
		own := errors.Is(leaderErr, context.DeadlineExceeded) || errors.Is(leaderErr, context.Canceled)
		switch {
		case own && (err != nil || hit || ran.Load() != 1 || v == nil):
			t.Errorf("leader failed with %v: waiter got hit=%v err=%v after %d computes; want its own compute's value", leaderErr, hit, err, ran.Load())
		case !own && (!errors.Is(err, leaderErr) || ran.Load() != 0):
			t.Errorf("leader failed with %v: waiter got err=%v after %d computes; want the shared error", leaderErr, err, ran.Load())
		}
	}
}

// A waiter keeps its own deadline: behind a leader that computes for 300 ms,
// a waiter whose context ends after 10 ms returns context.DeadlineExceeded
// at once, and the leader still stores its result.
func TestWaiterKeepsOwnDeadline(t *testing.T) {
	c := New(Options{Entries: 8})
	entered := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.do(bg, "hot", func() (*core.Result, []Tag, error) {
			close(entered)
			time.Sleep(300 * time.Millisecond)
			return mkResult(1), nil, nil
		})
	}()
	<-entered
	ctx, cancel := context.WithTimeout(bg, 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, hit, err := c.do(ctx, "hot", fill(2))
	if waited := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || res != nil || hit || waited >= 100*time.Millisecond {
		t.Fatalf("waiter returned %v, hit %v, err %v after %v; want context.DeadlineExceeded in under 100ms", res, hit, err, waited)
	}
	if st := c.Stats(); st.Coalesced != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v; want the waiter coalesced onto the leader", st)
	}
	<-leaderDone
	if got, ok := c.Lookup("hot"); !ok || got.Facilities[0].ID != 1 {
		t.Fatalf("cached %v (ok=%v); want the leader's result", got, ok)
	}
}

// The cache is one replacement domain: which entries survive, and with them
// the hit and eviction counts, are a function of the key sequence alone. A
// fixed Zipf sequence through a cache smaller than its key space must leave
// identical Stats and identical survivors whatever GOMAXPROCS is.
func TestReplacementIndependentOfCores(t *testing.T) {
	const entries, keys, requests = 64, 256, 20_000
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%d", i)
	}
	run := func(procs int) (Stats, []string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c := New(Options{Entries: entries})
		zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, keys-1)
		for i := 0; i < requests; i++ {
			id := int(zipf.Uint64())
			c.do(bg, names[id], fill(id))
		}
		st := c.Stats()
		var live []string
		for _, k := range names {
			if _, ok := c.Lookup(k); ok {
				live = append(live, k)
			}
		}
		return st, live
	}
	wantStats, wantLive := run(1)
	if wantStats.Evicted == 0 {
		t.Fatalf("sequence never evicted (%v); the test needs capacity pressure", wantStats)
	}
	for _, procs := range []int{2, 8} {
		st, live := run(procs)
		if st != wantStats {
			t.Errorf("GOMAXPROCS=%d: %v, want %v (GOMAXPROCS=1)", procs, st, wantStats)
		}
		if !slices.Equal(live, wantLive) {
			t.Errorf("GOMAXPROCS=%d: %d survivors differ from GOMAXPROCS=1's %d", procs, len(live), len(wantLive))
		}
	}
}

// A warm hit takes the lock, probes the maps and returns the shared value:
// it allocates nothing.
func TestHitAllocatesNothing(t *testing.T) {
	c := New(Options{Entries: 8})
	compute := fill(1, EdgeTag(3), IntervalTag(2))
	c.do(bg, "warm", compute)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, hit, _ := c.do(bg, "warm", compute); !hit {
			t.Fatal("warm key missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Do allocates %.1f objects; want 0", allocs)
	}
}

// BenchmarkCacheHitParallel measures the hit path under parallel load:
// every goroutine cycles over warm keys, so each op is one lock, one map
// probe and one tag check.
func BenchmarkCacheHitParallel(b *testing.B) {
	const keys = 512
	c := New(Options{})
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%d", i)
		c.do(bg, names[i], fill(i, EdgeTag(graph.EdgeID(i))))
	}
	compute := fill(0)
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seed.Add(97))
		for pb.Next() {
			if _, hit, _ := c.do(bg, names[i%keys], compute); !hit {
				b.Error("warm key missed")
				return
			}
			i++
		}
	})
}

func TestHitRate(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1, Coalesced: 1}
	if got := s.HitRate(); got != 0.8 {
		t.Fatalf("HitRate = %g", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatalf("empty HitRate != 0")
	}
}

// Weights are keyed as given: a proportional vector computes different
// scores, so it gets its own key. A -0 coefficient scores as +0 does, so
// the two share one; a non-finite coefficient cannot be keyed.
func TestKeyCanonicalization(t *testing.T) {
	base := KeySpec{Kind: KindTopK, Interval: -1, Edge: 7, T: 0.25,
		Agg: vec.NewWeighted(1, 2, 3), K: 5}
	k1, ok := base.Key()
	if !ok {
		t.Fatalf("base not cacheable")
	}

	scaled := base
	scaled.Agg = vec.NewWeighted(2, 4, 6)
	if k2, ok := scaled.Key(); !ok || k2 == k1 {
		t.Fatalf("proportional weight vectors share a key (cacheable %v)", ok)
	}

	diff := base
	diff.Agg = vec.NewWeighted(1, 2, 4)
	if k3, _ := diff.Key(); k3 == k1 {
		t.Fatalf("different weights share a key")
	}

	maxAgg := base
	maxAgg.Agg = vec.NewMax(1, 2, 3)
	if k4, _ := maxAgg.Key(); k4 == k1 {
		t.Fatalf("MaxAgg shares a key with Weighted")
	}

	zero, negZero := base, base
	zero.Agg = vec.NewWeighted(0, 2, 3)
	negZero.Agg = vec.NewWeighted(math.Copysign(0, -1), 2, 3)
	kz, _ := zero.Key()
	if kn, ok := negZero.Key(); !ok || kn != kz {
		t.Fatalf("-0 and +0 coefficients got different keys (cacheable %v)", ok)
	}

	for _, bad := range []vec.Aggregate{vec.Weighted{Coef: []float64{1, math.Inf(1), 3}}, vec.MaxAgg{Coef: []float64{math.NaN(), 2, 3}}} {
		nonFinite := base
		nonFinite.Agg = bad
		if _, ok := nonFinite.Key(); ok {
			t.Fatalf("non-finite coefficients %v reported cacheable", bad)
		}
	}

	opaque := base
	opaque.Agg = vec.Func{D: 3, F: func(vec.Costs) float64 { return 0 }}
	if _, ok := opaque.Key(); ok {
		t.Fatalf("opaque aggregate reported cacheable")
	}
}

func TestKeyDiscriminatesFields(t *testing.T) {
	base := KeySpec{Kind: KindNearest, Interval: -1, Edge: 7, T: 0.25, K: 3, CostIdx: 1}
	k0, _ := base.Key()
	variants := []KeySpec{
		{Kind: KindNearest, Interval: 0, Edge: 7, T: 0.25, K: 3, CostIdx: 1},
		{Kind: KindNearest, Interval: -1, Axis: 1, Edge: 7, T: 0.25, K: 3, CostIdx: 1},
		{Kind: KindNearest, Interval: -1, Edge: 8, T: 0.25, K: 3, CostIdx: 1},
		{Kind: KindNearest, Interval: -1, Edge: 7, T: 0.5, K: 3, CostIdx: 1},
		{Kind: KindNearest, Interval: -1, Edge: 7, T: 0.25, K: 4, CostIdx: 1},
		{Kind: KindNearest, Interval: -1, Edge: 7, T: 0.25, K: 3, CostIdx: 0},
		{Kind: KindNearest, Interval: -1, Edge: 7, T: 0.25, K: 3, CostIdx: 1, Engine: 1},
		{Kind: KindNearest, Interval: -1, Edge: 7, T: 0.25, K: 3, CostIdx: 1, NoEnhancements: true},
		{Kind: KindSkyline, Interval: -1, Edge: 7, T: 0.25},
	}
	seen := map[string]int{k0: -1}
	for i, v := range variants {
		k, ok := v.Key()
		if !ok {
			t.Fatalf("variant %d not cacheable", i)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("variants %d and %d collide", prev, i)
		}
		seen[k] = i
	}

	within := KeySpec{Kind: KindWithin, Interval: -1, Edge: 7, Budget: vec.Of(1, 2)}
	w0, _ := within.Key()
	within.Budget = vec.Of(1, 3)
	if w1, _ := within.Key(); w1 == w0 {
		t.Fatalf("different budgets share a key")
	}

	negZero := KeySpec{Kind: KindSkyline, Interval: -1, Edge: 7, T: math.Copysign(0, -1)}
	posZero := KeySpec{Kind: KindSkyline, Interval: -1, Edge: 7, T: 0}
	kn, _ := negZero.Key()
	kp, _ := posZero.Key()
	if kn != kp {
		t.Fatalf("-0 and +0 locations got different keys")
	}
}

func TestConcurrentChurn(t *testing.T) {
	c := New(Options{Entries: 32})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (w*7+i)%48)
				c.do(bg, k, fill(i, EdgeTag(graph.EdgeID(i%16))))
				if i%17 == 0 {
					c.Invalidate(EdgeTag(graph.EdgeID(i % 16)))
				}
				c.Lookup(k)
				c.Stats()
				c.Len()
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > c.Capacity() {
		t.Fatalf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
}

// A singleflight leader that fails (e.g. a storage I/O error) must hand that
// error to every coalesced waiter without caching it: the key stays
// retryable, and the next compute repopulates it normally.
func TestSingleflightLeaderErrorLeavesKeyRetryable(t *testing.T) {
	c := New(Options{Entries: 8})
	const herd = 16
	boom := errors.New("storage: page 7: device read failed")
	gate := make(chan struct{})
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := c.do(bg, "hot", func() (*core.Result, []Tag, error) {
				computes.Add(1)
				<-gate
				return nil, nil, boom
			})
			if hit {
				t.Error("failed compute reported as cache hit")
			}
			if !errors.Is(err, boom) {
				t.Errorf("waiter err = %v, want the leader's failure", err)
			}
		}()
	}
	// Let the herd register on the inflight record, then fail the leader.
	for c.Stats().Coalesced < herd-1 && computes.Load() <= 1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("leader ran %d times; want 1 (waiters must share its failure)", n)
	}
	if c.Len() != 0 {
		t.Fatal("failed compute left an entry in the cache")
	}
	// The key is immediately retryable and caches on success.
	v, hit, err := c.do(bg, "hot", fill(9))
	if err != nil || hit {
		t.Fatalf("retry after failure: hit=%v err=%v", hit, err)
	}
	if v.Facilities[0].ID != 9 {
		t.Fatalf("retry computed wrong value: %+v", v)
	}
	if _, hit, _ := c.do(bg, "hot", fill(10)); !hit {
		t.Fatal("successful retry was not cached")
	}
}
