package rescache

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mcn/internal/core"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

func mkValue(id int) Value {
	return Value{Result: &core.Result{Facilities: []core.Facility{{ID: graph.FacilityID(id)}}}}
}

func fill(id int, tags ...Tag) func() (Value, []Tag, error) {
	return func() (Value, []Tag, error) { return mkValue(id), tags, nil }
}

func TestHitMissBasics(t *testing.T) {
	c := New(Options{Entries: 8, Shards: 1})
	v, hit, err := c.Do("a", fill(1))
	if err != nil || hit {
		t.Fatalf("first Do: hit=%v err=%v", hit, err)
	}
	if v.Result.Facilities[0].ID != 1 {
		t.Fatalf("wrong value: %+v", v)
	}
	v2, hit, err := c.Do("a", fill(2))
	if err != nil || !hit {
		t.Fatalf("second Do: hit=%v err=%v", hit, err)
	}
	if v2.Result != v.Result {
		t.Fatalf("hit did not return the cached result pointer")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(Options{Entries: 8, Shards: 1})
	boom := errors.New("boom")
	_, _, err := c.Do("a", func() (Value, []Tag, error) { return Value{}, nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached")
	}
	_, hit, err := c.Do("a", fill(1))
	if err != nil || hit {
		t.Fatalf("retry after error: hit=%v err=%v", hit, err)
	}
}

func TestTagInvalidation(t *testing.T) {
	c := New(Options{Entries: 8, Shards: 1})
	c.Do("a", fill(1, EdgeTag(10)))
	c.Do("b", fill(2, EdgeTag(20)))

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

func TestFlushKillsEverything(t *testing.T) {
	c := New(Options{Entries: 8, Shards: 2})
	for i := 0; i < 6; i++ {
		c.Do(fmt.Sprintf("k%d", i), fill(i))
	}
	c.Flush()
	for i := 0; i < 6; i++ {
		if _, ok := c.Lookup(fmt.Sprintf("k%d", i)); ok {
			t.Fatalf("entry k%d survived Flush", i)
		}
	}
	// New inserts after the flush must live.
	c.Do("fresh", fill(99))
	if _, ok := c.Lookup("fresh"); !ok {
		t.Fatalf("post-flush insert did not stick")
	}
}

func TestInvalidateDuringCompute(t *testing.T) {
	c := New(Options{Entries: 8, Shards: 1})
	// The invalidation lands while the computation is running: the result
	// must be returned to the caller but never cached.
	v, hit, err := c.Do("a", func() (Value, []Tag, error) {
		c.Invalidate(EdgeTag(5))
		return mkValue(1), []Tag{EdgeTag(5)}, nil
	})
	if err != nil || hit || v.Result == nil {
		t.Fatalf("Do: hit=%v err=%v", hit, err)
	}
	if _, ok := c.Lookup("a"); ok {
		t.Fatalf("stale-at-insert entry was cached")
	}
}

func TestClockEviction(t *testing.T) {
	c := New(Options{Entries: 4, Shards: 1})
	for i := 0; i < 4; i++ {
		c.Do(fmt.Sprintf("k%d", i), fill(i))
	}
	// Touch k0 so it carries a reference bit; k1 is the sweep victim.
	if _, ok := c.Lookup("k0"); !ok {
		t.Fatalf("k0 missing before eviction")
	}
	c.Do("k4", fill(4))
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
	c := New(Options{Entries: 4, Shards: 1})
	for i := 0; i < 4; i++ {
		c.Do(fmt.Sprintf("k%d", i), fill(i, EdgeTag(graph.EdgeID(i))))
	}
	c.Invalidate(EdgeTag(graph.EdgeID(2)))
	c.Lookup("k2") // lazy kill
	c.Do("k9", fill(9))
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
	c := New(Options{Entries: 8, Shards: 1})
	const herd = 32
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do("hot", func() (Value, []Tag, error) {
				computes.Add(1)
				<-gate
				return mkValue(7), nil, nil
			})
			if err != nil || v.Result.Facilities[0].ID != 7 {
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
	c := New(Options{Entries: 8, Shards: 1})
	entered := make(chan struct{})
	finish := make(chan struct{})
	var waitErr error
	go func() {
		defer func() { recover(); close(finish) }()
		c.Do("hot", func() (Value, []Tag, error) {
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
		_, _, waitErr = c.Do("hot", fill(1))
	}()
	<-finish
	wg.Wait()
	if !errors.Is(waitErr, ErrComputePanic) {
		t.Fatalf("waiter error = %v; want ErrComputePanic", waitErr)
	}
	// The key must be retryable afterwards.
	if _, _, err := c.Do("hot", fill(2)); err != nil {
		t.Fatalf("retry after panic: %v", err)
	}
}

func TestShardStatsSumToStats(t *testing.T) {
	c := New(Options{Entries: 64, Shards: 4})
	if c.Shards() != 4 {
		t.Fatalf("Shards = %d", c.Shards())
	}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%d", i%10)
		c.Do(k, fill(i))
	}
	var sum Stats
	var entries int64
	for _, s := range c.ShardStats() {
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Coalesced += s.Coalesced
		sum.Invalidated += s.Invalidated
		sum.Evicted += s.Evicted
		entries += s.Entries
	}
	if sum != c.Stats() {
		t.Fatalf("shard sum %+v != aggregate %+v", sum, c.Stats())
	}
	if int(entries) != c.Len() {
		t.Fatalf("shard entries %d != Len %d", entries, c.Len())
	}
	if c.Stats().Hits != 30 || c.Stats().Misses != 10 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestCapacityClampsShards(t *testing.T) {
	c := New(Options{Entries: 2, Shards: 16})
	if c.Shards() > 2 {
		t.Fatalf("Shards = %d for capacity 2", c.Shards())
	}
	if c.Capacity() != 2 {
		t.Fatalf("Capacity = %d", c.Capacity())
	}
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

func TestKeyCanonicalization(t *testing.T) {
	base := KeySpec{Kind: KindTopK, Interval: -1, Edge: 7, T: 0.25,
		Agg: vec.NewWeighted(1, 2, 3), K: 5}
	k1, scale1, ok := base.Key()
	if !ok {
		t.Fatalf("base not cacheable")
	}
	if scale1 != 6 {
		t.Fatalf("scale = %g; want 6", scale1)
	}

	scaled := base
	scaled.Agg = vec.NewWeighted(2, 4, 6)
	k2, scale2, ok := scaled.Key()
	if !ok || k2 != k1 {
		t.Fatalf("proportional weight vectors got different keys")
	}
	if scale2 != 12 {
		t.Fatalf("scaled norm = %g; want 12", scale2)
	}

	diff := base
	diff.Agg = vec.NewWeighted(1, 2, 4)
	if k3, _, _ := diff.Key(); k3 == k1 {
		t.Fatalf("different weights share a key")
	}

	maxAgg := base
	maxAgg.Agg = vec.NewMax(1, 2, 3)
	if k4, _, _ := maxAgg.Key(); k4 == k1 {
		t.Fatalf("MaxAgg shares a key with Weighted")
	}

	opaque := base
	opaque.Agg = vec.Func{D: 3, F: func(vec.Costs) float64 { return 0 }}
	if _, _, ok := opaque.Key(); ok {
		t.Fatalf("opaque aggregate reported cacheable")
	}
}

func TestKeyDiscriminatesFields(t *testing.T) {
	base := KeySpec{Kind: KindNearest, Interval: -1, Edge: 7, T: 0.25, K: 3, CostIdx: 1}
	k0, _, _ := base.Key()
	variants := []KeySpec{
		{Kind: KindNearest, Interval: 0, Edge: 7, T: 0.25, K: 3, CostIdx: 1},
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
		k, _, ok := v.Key()
		if !ok {
			t.Fatalf("variant %d not cacheable", i)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("variants %d and %d collide", prev, i)
		}
		seen[k] = i
	}

	within := KeySpec{Kind: KindWithin, Interval: -1, Edge: 7, Budget: vec.Of(1, 2)}
	w0, _, _ := within.Key()
	within.Budget = vec.Of(1, 3)
	if w1, _, _ := within.Key(); w1 == w0 {
		t.Fatalf("different budgets share a key")
	}

	negZero := KeySpec{Kind: KindSkyline, Interval: -1, Edge: 7, T: math.Copysign(0, -1)}
	posZero := KeySpec{Kind: KindSkyline, Interval: -1, Edge: 7, T: 0}
	kn, _, _ := negZero.Key()
	kp, _, _ := posZero.Key()
	if kn != kp {
		t.Fatalf("-0 and +0 locations got different keys")
	}
}

func TestConcurrentChurn(t *testing.T) {
	c := New(Options{Entries: 32, Shards: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (w*7+i)%48)
				c.Do(k, fill(i, EdgeTag(graph.EdgeID(i%16))))
				if i%17 == 0 {
					c.Invalidate(EdgeTag(graph.EdgeID(i % 16)))
				}
				if i%97 == 0 {
					c.Flush()
				}
				c.Lookup(k)
				c.Stats()
				c.ShardStats()
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
	c := New(Options{Entries: 8, Shards: 1})
	const herd = 16
	boom := errors.New("storage: page 7: retries exhausted")
	gate := make(chan struct{})
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := c.Do("hot", func() (Value, []Tag, error) {
				computes.Add(1)
				<-gate
				return Value{}, nil, boom
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
	v, hit, err := c.Do("hot", fill(9))
	if err != nil || hit {
		t.Fatalf("retry after failure: hit=%v err=%v", hit, err)
	}
	if v.Result.Facilities[0].ID != 9 {
		t.Fatalf("retry computed wrong value: %+v", v)
	}
	if _, hit, _ := c.Do("hot", fill(10)); !hit {
		t.Fatal("successful retry was not cached")
	}
}
