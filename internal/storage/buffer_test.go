package storage

import (
	"context"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"
)

// stampDevice allocates n pages, each stamped with its id.
func stampDevice(t *testing.T, n int) *MemDevice {
	t.Helper()
	dev := NewMemDevice()
	buf := make([]byte, PageSize)
	for i := 0; i < n; i++ {
		id, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(buf, uint32(id))
		if err := dev.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return dev
}

func pageStamp(data []byte) uint32 { return binary.LittleEndian.Uint32(data) }

// readStamp reads page id through the pool and returns its stamp, unpinning
// the frame before it returns.
func readStamp(pool *BufferPool, id PageID) (uint32, error) {
	return readStampCtx(nil, pool, id)
}

func readStampCtx(ctx context.Context, pool *BufferPool, id PageID) (uint32, error) {
	fr, err := pool.GetCtx(ctx, id)
	if err != nil {
		return 0, err
	}
	defer fr.Release()
	return pageStamp(fr.Data()), nil
}

func TestBufferPoolHitAndMiss(t *testing.T) {
	dev := stampDevice(t, 4)
	pool := NewBufferPool(dev, 2)

	stamp, err := readStamp(pool, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stamp != 3 {
		t.Fatalf("stamp = %d, want 3", stamp)
	}
	if s := pool.Stats(); s.Logical != 1 || s.Physical != 1 {
		t.Fatalf("stats after miss: %+v", s)
	}
	if _, err := readStamp(pool, 3); err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); s.Logical != 2 || s.Physical != 1 {
		t.Fatalf("stats after hit: %+v", s)
	}
}

func TestBufferPoolLRUEviction(t *testing.T) {
	dev := stampDevice(t, 5)
	pool := NewBufferPool(dev, 2, PoolOptions{Policy: PolicyLRU})
	mustGet := func(id PageID) {
		t.Helper()
		if _, err := readStamp(pool, id); err != nil {
			t.Fatal(err)
		}
	}
	mustGet(0)
	mustGet(1)
	mustGet(0) // 0 becomes MRU; LRU order: 1, 0
	mustGet(2) // evicts 1
	base := pool.Stats().Physical
	mustGet(0) // must still be cached
	if got := pool.Stats().Physical; got != base {
		t.Errorf("page 0 was evicted out of LRU order (physical %d -> %d)", base, got)
	}
	mustGet(1) // must have been evicted
	if got := pool.Stats().Physical; got != base+1 {
		t.Errorf("page 1 unexpectedly cached (physical %d -> %d)", base, got)
	}
	if pool.Len() != 2 {
		t.Errorf("Len = %d, want 2", pool.Len())
	}
}

func TestBufferPoolZeroCapacity(t *testing.T) {
	dev := stampDevice(t, 3)
	pool := NewBufferPool(dev, 0)
	for i := 0; i < 5; i++ {
		if _, err := readStamp(pool, 1); err != nil {
			t.Fatal(err)
		}
	}
	s := pool.Stats()
	if s.Logical != 5 || s.Physical != 5 {
		t.Errorf("zero-capacity pool must miss every read: %+v", s)
	}
	if pool.Len() != 0 {
		t.Errorf("zero-capacity pool cached %d pages", pool.Len())
	}
}

func TestBufferPoolFrac(t *testing.T) {
	dev := stampDevice(t, 200)
	pool := NewBufferPoolFrac(dev, 0.01)
	if pool.Capacity() != 2 {
		t.Errorf("capacity = %d, want 2 (1%% of 200)", pool.Capacity())
	}
}

func TestBufferPoolResetAndDrop(t *testing.T) {
	dev := stampDevice(t, 3)
	pool := NewBufferPool(dev, 3)
	if _, err := readStamp(pool, 0); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	if s := pool.Stats(); s.Logical != 0 || s.Physical != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
	if _, err := readStamp(pool, 0); err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); s.Physical != 0 {
		t.Error("ResetStats must keep cached pages")
	}
	pool.Drop()
	if _, err := readStamp(pool, 0); err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); s.Physical != 1 {
		t.Error("Drop must evict cached pages")
	}
}

// Model-based test: an LRU pool must behave exactly like a reference LRU.
func TestBufferPoolMatchesReferenceLRU(t *testing.T) {
	const pages = 30
	dev := stampDevice(t, pages)
	for _, capacity := range []int{1, 2, 7, 30} {
		pool := NewBufferPool(dev, capacity, PoolOptions{Policy: PolicyLRU})
		var ref []PageID // ref[0] is MRU
		rng := rand.New(rand.NewSource(int64(capacity)))
		for step := 0; step < 3000; step++ {
			id := PageID(rng.Intn(pages))
			before := pool.Stats().Physical
			stamp, err := readStamp(pool, id)
			if err != nil {
				t.Fatal(err)
			}
			if stamp != uint32(id) {
				t.Fatalf("cap %d: wrong contents for page %d", capacity, id)
			}
			missed := pool.Stats().Physical > before

			inRef := -1
			for i, r := range ref {
				if r == id {
					inRef = i
					break
				}
			}
			if (inRef == -1) != missed {
				t.Fatalf("cap %d step %d: miss=%v but reference cached=%v", capacity, step, missed, inRef != -1)
			}
			if inRef >= 0 {
				ref = append(ref[:inRef], ref[inRef+1:]...)
			}
			ref = append([]PageID{id}, ref...)
			if len(ref) > capacity {
				ref = ref[:capacity]
			}
		}
	}
}

// Model-based test: a clock pool must behave exactly like a reference CLOCK
// (second-chance) cache.
func TestBufferPoolMatchesReferenceClock(t *testing.T) {
	const pages = 30
	dev := stampDevice(t, pages)
	for _, capacity := range []int{1, 2, 7, 30} {
		pool := NewBufferPool(dev, capacity, PoolOptions{Policy: PolicyClock})

		// Reference clock: fixed slots, a hand, and per-slot ref bits.
		type slot struct {
			id  PageID
			ref bool
		}
		var ring []slot
		hand := 0
		cached := func(id PageID) int {
			for i := range ring {
				if ring[i].id == id {
					return i
				}
			}
			return -1
		}
		rng := rand.New(rand.NewSource(int64(capacity)))
		for step := 0; step < 3000; step++ {
			id := PageID(rng.Intn(pages))
			before := pool.Stats().Physical
			stamp, err := readStamp(pool, id)
			if err != nil {
				t.Fatal(err)
			}
			if stamp != uint32(id) {
				t.Fatalf("cap %d: wrong contents for page %d", capacity, id)
			}
			missed := pool.Stats().Physical > before

			if i := cached(id); i >= 0 {
				if missed {
					t.Fatalf("cap %d step %d: miss but reference has page %d cached", capacity, step, id)
				}
				ring[i].ref = true
				continue
			}
			if !missed {
				t.Fatalf("cap %d step %d: hit but reference does not cache page %d", capacity, step, id)
			}
			if len(ring) < capacity {
				ring = append(ring, slot{id: id})
				continue
			}
			for ring[hand].ref {
				ring[hand].ref = false
				hand = (hand + 1) % capacity
			}
			ring[hand] = slot{id: id}
			hand = (hand + 1) % capacity
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"clock", PolicyClock}, {"", PolicyClock}, {"lru", PolicyLRU}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePolicy("mru"); err == nil {
		t.Error("ParsePolicy(mru) succeeded, want error")
	}
	if PolicyClock.String() != "clock" || PolicyLRU.String() != "lru" {
		t.Error("Policy.String mismatch")
	}
}

// TestShardStats: the one per-partition entry must agree with the aggregate
// Stats, count hits/evictions/coalesced correctly where the access pattern is
// fully predictable, and zero out with ResetStats.
func TestShardStats(t *testing.T) {
	dev := stampDevice(t, 6)
	pool := NewBufferPool(dev, 2, PoolOptions{Policy: PolicyLRU})

	mustGet := func(id PageID) {
		t.Helper()
		if _, err := readStamp(pool, id); err != nil {
			t.Fatal(err)
		}
	}
	mustGet(0) // miss
	mustGet(0) // hit
	mustGet(1) // miss
	mustGet(2) // miss + eviction (cap 2)
	mustGet(2) // hit

	shards := pool.ShardStats()
	if len(shards) != 1 {
		t.Fatalf("ShardStats returned %d entries, want 1", len(shards))
	}
	s := shards[0]
	if s.Logical != 5 || s.Physical != 3 || s.Hits != 2 || s.Evictions != 1 || s.Coalesced != 0 {
		t.Fatalf("shard stats = %+v, want logical=5 physical=3 hits=2 evictions=1 coalesced=0", s)
	}

	agg := pool.Stats()
	if agg.Logical != s.Logical || agg.Physical != s.Physical {
		t.Fatalf("aggregate %+v disagrees with shard sum %+v", agg, s)
	}

	pool.ResetStats()
	for _, s := range pool.ShardStats() {
		if s.Logical != 0 || s.Physical != 0 || s.Hits != 0 || s.Evictions != 0 || s.Coalesced != 0 {
			t.Fatalf("counters survived ResetStats: %+v", s)
		}
	}
}

// TestShardStatsCoalesced: concurrent readers of one cold page on a slow
// device must record coalesced waits, and the entry must match the
// aggregate counters.
func TestShardStatsCoalesced(t *testing.T) {
	dev := stampDevice(t, 64)
	slow := NewLatencyDevice(dev, 2*time.Millisecond, 2)
	pool := NewBufferPool(slow, 32)

	const readers = 8
	start := make(chan struct{}) // gate: maximise overlap on the cold page
	errs := make(chan error, readers)
	for w := 0; w < readers; w++ {
		go func() {
			<-start
			_, err := readStamp(pool, 7) // same cold page for everyone
			errs <- err
		}()
	}
	close(start)
	for w := 0; w < readers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	var logical, physical, hits, coalesced int64
	for _, s := range pool.ShardStats() {
		logical += s.Logical
		physical += s.Physical
		hits += s.Hits
		coalesced += s.Coalesced
	}
	if logical != readers {
		t.Fatalf("logical = %d, want %d", logical, readers)
	}
	// Every reader resolves one way: a device read, a shared in-flight read,
	// or — if scheduled after the 2ms read completed — a plain cache hit.
	if physical < 1 || physical+coalesced+hits != readers {
		t.Fatalf("physical=%d coalesced=%d hits=%d; must account for all %d readers", physical, coalesced, hits, readers)
	}
	if coalesced == 0 && hits == 0 {
		t.Fatal("8 gate-released readers of one cold page on a 2ms device neither coalesced nor hit the cache")
	}
	agg := pool.Stats()
	if agg.Logical != logical || agg.Physical != physical {
		t.Fatalf("aggregate %+v disagrees with shard sums logical=%d physical=%d", agg, logical, physical)
	}
}
