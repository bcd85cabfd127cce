package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Stress test for the sharded pool under -race: workers hammer a mix of hot
// pages (always resident after warmup) and a cold tail (constant eviction
// churn). A pinned frame must keep its page — a reader holding one while
// the other workers evict around it must still see the right contents.
func TestBufferPoolStressMixedHotCold(t *testing.T) {
	const (
		pages   = 512
		hotSet  = 8
		workers = 8
		steps   = 4000
	)
	dev := stampDevice(t, pages)
	for _, opt := range []PoolOptions{
		{},                  // default: sharded clock, coalescing
		{Shards: 1},         // single shard exercises one-lock interleavings
		{Policy: PolicyLRU}, // sharded LRU
		{Shards: 4, Policy: PolicyLRU},
	} {
		opt := opt
		t.Run(fmt.Sprintf("shards=%d_policy=%v", opt.Shards, opt.Policy), func(t *testing.T) {
			pool := NewBufferPool(dev, 64, opt)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < steps; i++ {
						var id PageID
						if rng.Intn(4) > 0 { // 75% of traffic on the hot set
							id = PageID(rng.Intn(hotSet))
						} else {
							id = PageID(hotSet + rng.Intn(pages-hotSet))
						}
						stamp, err := readStamp(pool, id)
						if err != nil {
							t.Error(err)
							return
						}
						if stamp != uint32(id) {
							t.Errorf("page %d returned stamp %d", id, stamp)
							return
						}
					}
				}(int64(w + 1))
			}
			wg.Wait()
			s := pool.Stats()
			if s.Logical != workers*steps {
				t.Errorf("logical = %d, want %d", s.Logical, workers*steps)
			}
			if s.Physical < 1 || s.Physical > s.Logical {
				t.Errorf("implausible physical count %d", s.Physical)
			}
			if n := pool.Len(); n > 64 {
				t.Errorf("pool holds %d pages, capacity 64", n)
			}
		})
	}
}

// Stats snapshots are lock-free but must remain monotonically non-decreasing
// while traffic flows: a /stats poller must never observe a counter running
// backwards.
func TestBufferPoolStatsMonotonic(t *testing.T) {
	const pages = 128
	dev := stampDevice(t, pages)
	pool := NewBufferPool(dev, 16)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := readStamp(pool, PageID(rng.Intn(pages))); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}

	var prev Stats
	for i := 0; i < 5000; i++ {
		s := pool.Stats()
		if s.Logical < prev.Logical || s.Physical < prev.Physical {
			t.Errorf("stats ran backwards: %+v -> %+v", prev, s)
			break
		}
		if s.Physical > s.Logical {
			t.Errorf("physical %d exceeds logical %d", s.Physical, s.Logical)
			break
		}
		prev = s
	}
	close(stop)
	wg.Wait()
}

// Miss coalescing must bound the physical reads of a popular page: when many
// queries want the same cold page at once, one device read serves them all.
// The latency device keeps the read in flight long enough that every reader
// of a burst arrives while it is pending.
func TestBufferPoolCoalescesPopularPage(t *testing.T) {
	const (
		readers = 16
		bursts  = 5
	)
	base := stampDevice(t, 8)
	dev := NewLatencyDevice(base, 5*time.Millisecond, readers)
	pool := NewBufferPool(dev, 4)

	var total int64
	for burst := 0; burst < bursts; burst++ {
		pool.Drop() // page 7 is cold again
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				stamp, err := readStamp(pool, 7)
				if err != nil {
					t.Error(err)
					return
				}
				if stamp != 7 {
					t.Errorf("stamp = %d, want 7", stamp)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	total = pool.Stats().Physical
	// Perfect coalescing costs one read per burst; allow a small margin for
	// a reader that arrives after its burst's read completed and re-misses
	// (it cannot happen here — the page stays cached until Drop — but the
	// bound should not encode that much about scheduling).
	if total > bursts*2 {
		t.Errorf("popular page cost %d physical reads over %d bursts, want <= %d (coalescing broken)",
			total, bursts, bursts*2)
	}
	if total < bursts {
		t.Errorf("physical = %d, want >= %d (page re-read each burst)", total, bursts)
	}
	if got := dev.Reads(); got != total {
		t.Errorf("device serviced %d reads but pool counted %d", got, total)
	}
}

// A failed device read must propagate to every coalesced waiter and must not
// poison the pool: the next read of that page retries the device.
func TestBufferPoolCoalescedReadError(t *testing.T) {
	dev := stampDevice(t, 4)
	pool := NewBufferPool(dev, 4)
	if _, err := readStamp(pool, 99); err == nil {
		t.Fatal("read of unallocated page succeeded")
	}
	if _, err := readStamp(pool, 99); err == nil {
		t.Fatal("second read of unallocated page succeeded (error frame cached?)")
	}
	if s := pool.Stats(); s.Physical != 2 {
		t.Errorf("physical = %d, want 2 (failed reads are not cached)", s.Physical)
	}
	// A good page still works afterwards.
	stamp, err := readStamp(pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stamp != 2 {
		t.Errorf("stamp = %d, want 2", stamp)
	}
}

// BenchmarkBufferPoolParallel compares page-get throughput of the classic
// single-mutex LRU pool against the sharded clock pool under parallel load
// (go test -bench BufferPoolParallel -cpu 1,2,4,8).
func BenchmarkBufferPoolParallel(b *testing.B) {
	const pages = 4096
	dev := NewMemDevice()
	buf := make([]byte, PageSize)
	for i := 0; i < pages; i++ {
		id, err := dev.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.WritePage(id, buf); err != nil {
			b.Fatal(err)
		}
	}
	for _, cfg := range []struct {
		name string
		opts PoolOptions
	}{
		{"mutexLRU", PoolOptions{Shards: 1, Policy: PolicyLRU}},
		{"shardedClock", PoolOptions{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			pool := NewBufferPool(dev, pages/4, cfg.opts)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(42))
				for pb.Next() {
					// Zipf-ish skew: most traffic on low page ids.
					id := PageID(rng.Intn(64))
					if rng.Intn(8) == 0 {
						id = PageID(rng.Intn(pages))
					}
					if _, err := readStamp(pool, id); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
