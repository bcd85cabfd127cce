package storage

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"
)

// Capacity returns the pool's total page capacity.
func (b *BufferPool) Capacity() int { return b.cap }

// Len returns the number of pages the table maps (approximate while misses
// are in flight).
func (b *BufferPool) Len() int {
	n := 0
	for i := range b.table {
		if b.table[i].Load() != nil {
			n++
		}
	}
	return n
}

// Drop evicts every cached page (a cold restart) without touching counters.
// A reader still holding a page's bytes keeps reading them: they are the
// device's, or a buffer the garbage collector keeps alive.
func (b *BufferPool) Drop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, id := range b.ring {
		b.table[id].Store(nil)
	}
	b.ring, b.hand = b.ring[:0], 0
}

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

// readStamp reads page id through the pool and returns its stamp.
func readStamp(pool *BufferPool, id PageID) (uint32, error) {
	data, err := pool.Get(id)
	if err != nil {
		return 0, err
	}
	return pageStamp(data), nil
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

func TestPolicyString(t *testing.T) {
	if PolicyClock.String() != "clock" || PolicyLRU.String() != "lru" {
		t.Error("Policy.String mismatch")
	}
	if (PoolOptions{}).Policy != PolicyClock {
		t.Error("zero PoolOptions is not the clock pool")
	}
}

// TestShardStats: the one per-partition entry must agree with the aggregate
// Stats, count hits and evictions correctly where the access pattern is
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
	if s != (ShardStats{Logical: 5, Physical: 3, Hits: 2, Evictions: 1}) {
		t.Fatalf("shard stats = %+v, want logical=5 physical=3 hits=2 evictions=1", s)
	}

	agg := pool.Stats()
	if agg.Logical != s.Logical || agg.Physical != s.Physical {
		t.Fatalf("aggregate %+v disagrees with shard sum %+v", agg, s)
	}

	pool.ResetStats()
	for _, s := range pool.ShardStats() {
		if s != (ShardStats{}) {
			t.Fatalf("counters survived ResetStats: %+v", s)
		}
	}
}

// TestShardStatsCoalesced: concurrent readers of one cold page on a slow
// device share one device read — the first reads it under the pool's lock,
// the rest wait for the lock and hit — and the entry must match the
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

	shards := pool.ShardStats()
	if len(shards) != 1 {
		t.Fatalf("ShardStats returned %d entries, want 1", len(shards))
	}
	if s := shards[0]; s != (ShardStats{Logical: readers, Physical: 1, Hits: readers - 1}) {
		t.Fatalf("shard stats = %+v, want logical=%d physical=1 hits=%d", s, readers, readers-1)
	}
	if got := slow.Reads(); got != 1 {
		t.Fatalf("device serviced %d reads of one page, want 1", got)
	}
	agg := pool.Stats()
	if agg.Logical != shards[0].Logical || agg.Physical != shards[0].Physical {
		t.Fatalf("aggregate %+v disagrees with the entry %+v", agg, shards[0])
	}
}
