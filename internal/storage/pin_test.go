package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// randomDevice allocates n pages of random bytes and returns the device with
// a copy of what it holds.
func randomDevice(t testing.TB, n int, seed int64) (*MemDevice, [][]byte) {
	t.Helper()
	dev := NewMemDevice()
	rng := rand.New(rand.NewSource(seed))
	want := make([][]byte, n)
	for i := range want {
		id, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = make([]byte, PageSize)
		rng.Read(want[i])
		if err := dev.WritePage(id, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	return dev, want
}

// Drop must leave a pinned frame alone: a cursor that is half way through a
// record keeps reading the right bytes while the pool is dropped and every
// other frame is recycled under it.
func TestDropKeepsPinnedFrame(t *testing.T) {
	for _, policy := range []Policy{PolicyClock, PolicyLRU} {
		t.Run(policy.String(), func(t *testing.T) {
			dev, want := randomDevice(t, 12, 5)
			pool := NewBufferPool(dev, 2, PoolOptions{Shards: 1, Policy: policy})
			record := append(append([]byte{}, want[3][100:]...), want[4][:200]...)

			c := newCursor(nil, pool, Ref{Page: 3, Off: 100})
			defer c.close()
			head, err := c.next(1000)
			if err != nil {
				t.Fatal(err)
			}
			pool.Drop()
			if pool.Len() != 1 {
				t.Fatalf("Len after Drop = %d, want the 1 pinned page", pool.Len())
			}
			// Recycle what Drop freed, several times over.
			for id := PageID(5); id < 12; id++ {
				fr, err := pool.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fr.Data(), want[id]) {
					t.Fatalf("page %d corrupted after Drop", id)
				}
				fr.Release()
			}
			if !bytes.Equal(head, record[:1000]) {
				t.Fatal("bytes of the pinned page changed under the cursor")
			}
			rest, err := c.next(len(record) - 1000)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rest, record[1000:]) {
				t.Fatal("record read across Drop is wrong")
			}
			c.close()
			pool.Drop()
			if pool.Len() != 0 {
				t.Fatalf("Len after unpinned Drop = %d, want 0", pool.Len())
			}
		})
	}
}

// When every frame of a shard is pinned a miss is served from a borrowed
// buffer: nothing is evicted, nothing is cached, and the pinned frames keep
// their pages.
func TestAllFramesPinnedFallback(t *testing.T) {
	for _, policy := range []Policy{PolicyClock, PolicyLRU} {
		t.Run(policy.String(), func(t *testing.T) {
			dev, want := randomDevice(t, 6, 9)
			pool := NewBufferPool(dev, 2, PoolOptions{Shards: 1, Policy: policy})
			a, err := pool.Get(0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := pool.Get(1)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				c, err := pool.Get(2)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(c.Data(), want[2]) {
					t.Fatal("borrowed buffer holds the wrong page")
				}
				c.Release()
			}
			if ev := pool.ShardStats()[0].Evictions; ev != 0 {
				t.Errorf("evictions = %d with every frame pinned, want 0", ev)
			}
			if s := pool.Stats(); s.Physical != 5 {
				t.Errorf("physical = %d, want 5 (borrowed reads are not cached)", s.Physical)
			}
			if !bytes.Equal(a.Data(), want[0]) || !bytes.Equal(b.Data(), want[1]) {
				t.Fatal("a pinned frame lost its page")
			}
			a.Release()
			b.Release()
			// With a frame free again the page is cached as usual.
			for round := 0; round < 2; round++ {
				c, err := pool.Get(2)
				if err != nil {
					t.Fatal(err)
				}
				c.Release()
			}
			if s := pool.Stats(); s.Physical != 6 {
				t.Errorf("physical = %d, want 6 (one read, then a hit)", s.Physical)
			}
		})
	}
}

// flakyDevice fails a fraction of reads with a transient error after
// scribbling over the caller's buffer, as a transfer that died half way
// would, and delays every read a little so that misses overlap.
type flakyDevice struct {
	Device
	n atomic.Uint64
}

func (d *flakyDevice) ReadPage(id PageID, buf []byte) error {
	n := d.n.Add(1)
	if n%4 == 0 {
		time.Sleep(20 * time.Microsecond)
	}
	if n%7 == 0 {
		for i := range buf {
			buf[i] = 0xEE
		}
		return MarkTransient(fmt.Errorf("flaky read of page %d", id))
	}
	return d.Device.ReadPage(id, buf)
}

// Pin/evict stress (run with -race): many goroutines over shards of one to
// four frames compare every page they pin with the device's copy while they
// hold the pin. Hot pages make readers coalesce, the tiny shards make
// all-frames-pinned the normal case, some readers give up through their
// context (as leaders and as waiters), reads fail mid-transfer with and
// without retries left, and the pool is dropped now and then.
func TestPinEvictStress(t *testing.T) {
	const (
		pages   = 48
		workers = 12
	)
	steps := 3000
	if testing.Short() {
		steps = 600
	}
	for _, tc := range []struct {
		capacity int
		opts     PoolOptions
	}{
		{1, PoolOptions{}},
		{4, PoolOptions{Shards: 4}},
		{4, PoolOptions{Shards: 1, Policy: PolicyLRU}},
		{8, PoolOptions{Shards: 2, Policy: PolicyLRU}},
		{6, PoolOptions{Shards: 2}},
		{0, PoolOptions{}},
	} {
		tc.opts.Retry = RetryPolicy{MaxRetries: 1, BaseBackoff: time.Microsecond, MaxBackoff: 5 * time.Microsecond}
		name := fmt.Sprintf("cap=%d_shards=%d_%v", tc.capacity, tc.opts.Shards, tc.opts.Policy)
		t.Run(name, func(t *testing.T) {
			mem, want := randomDevice(t, pages, 11)
			pool := NewBufferPool(&flakyDevice{Device: mem}, tc.capacity, tc.opts)
			var wg sync.WaitGroup
			var ok, failed, cancelled atomic.Int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < steps; i++ {
						id := PageID(rng.Intn(4)) // hot: readers pile onto one read
						if rng.Intn(3) == 0 {
							id = PageID(rng.Intn(pages))
						}
						ctx, cancel := context.Background(), context.CancelFunc(func() {})
						if rng.Intn(8) == 0 {
							ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(30))*time.Microsecond)
						}
						fr, err := pool.GetCtx(ctx, id)
						cancel()
						switch {
						case err == nil:
						case errors.Is(err, context.DeadlineExceeded):
							cancelled.Add(1)
							continue
						case IsTransient(err):
							failed.Add(1)
							continue
						default:
							t.Errorf("page %d: %v", id, err)
							return
						}
						if rng.Intn(4) == 0 {
							time.Sleep(time.Microsecond) // hold the pin across a reschedule
						}
						if !bytes.Equal(fr.Data(), want[id]) {
							t.Errorf("page %d: pinned frame holds other bytes", id)
							fr.Release()
							return
						}
						fr.Release()
						ok.Add(1)
						if seed == 1 && i%500 == 499 {
							pool.Drop()
						}
					}
				}(int64(w + 1))
			}
			wg.Wait()
			t.Logf("ok=%d transient=%d cancelled=%d %v %v", ok.Load(), failed.Load(), cancelled.Load(), pool.Stats(), pool.FailureStats())
			if ok.Load() == 0 || failed.Load() == 0 {
				t.Errorf("stress did not cover both outcomes: ok=%d transient=%d", ok.Load(), failed.Load())
			}

			// Every pin went back: the whole pool can be dropped, and each
			// shard holds no more frames than its capacity.
			pool.Drop()
			if n := pool.Len(); n != 0 {
				t.Errorf("%d pages still pinned after every reader released", n)
			}
			for i := range pool.shards {
				s := &pool.shards[i]
				if s.nframes > s.cap || len(s.free) != s.nframes || len(s.inflight) != 0 {
					t.Errorf("shard %d: %d frames (%d spare, %d in flight) for capacity %d", i, s.nframes, len(s.free), len(s.inflight), s.cap)
				}
			}
			for id := range want {
				fr, err := pool.Get(PageID(id))
				if err != nil {
					if IsTransient(err) {
						continue
					}
					t.Fatal(err)
				}
				if !bytes.Equal(fr.Data(), want[id]) {
					t.Errorf("page %d wrong after the stress", id)
				}
				fr.Release()
			}
		})
	}
}
