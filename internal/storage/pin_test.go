package storage

import (
	"bytes"
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
			pool := NewBufferPool(dev, 2, PoolOptions{Policy: policy})
			record := append(append([]byte{}, want[3][100:]...), want[4][:200]...)

			c := newCursor(pool, Ref{Page: 3, Off: 100})
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

// When every frame of the pool is pinned a miss is served from a borrowed
// buffer: nothing is evicted, nothing is cached, and the pinned frames keep
// their pages.
func TestAllFramesPinnedFallback(t *testing.T) {
	for _, policy := range []Policy{PolicyClock, PolicyLRU} {
		t.Run(policy.String(), func(t *testing.T) {
			dev, want := randomDevice(t, 6, 9)
			pool := NewBufferPool(dev, 2, PoolOptions{Policy: policy})
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

// reading counts the pages the table maps to a claimed frame: the reads in
// flight.
func reading(pool *BufferPool) int {
	n := 0
	for i := range pool.table {
		if f := pool.table[i].Load(); f != nil && f.pins.Load() < 0 {
			n++
		}
	}
	return n
}

// errFlaky is the device error flakyDevice fails its reads with.
var errFlaky = errors.New("flaky read")

// flakyDevice fails a fraction of reads with errFlaky after
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
		return errFlaky
	}
	return d.Device.ReadPage(id, buf)
}

// Pin/evict stress (run with -race): many goroutines over pools of one to
// eight frames compare every page they pin with the device's copy while they
// hold the pin. Hot pages make readers coalesce and CLOCK hits race the
// evictor's claim, the tiny pools make all-frames-pinned the normal case,
// reads fail mid-transfer (as leaders and under waiters), and the pool is
// dropped now and then.
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
		{4, PoolOptions{}},
		{4, PoolOptions{Policy: PolicyLRU}},
		{8, PoolOptions{Policy: PolicyLRU}},
		{6, PoolOptions{}},
		{0, PoolOptions{}},
	} {
		name := fmt.Sprintf("cap=%d_%v", tc.capacity, tc.opts.Policy)
		t.Run(name, func(t *testing.T) {
			mem, want := randomDevice(t, pages, 11)
			pool := NewBufferPool(&flakyDevice{Device: mem}, tc.capacity, tc.opts)
			var wg sync.WaitGroup
			var ok, failed atomic.Int64
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
						fr, err := pool.Get(id)
						switch {
						case err == nil:
						case errors.Is(err, errFlaky):
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
			t.Logf("ok=%d failed=%d %v %v", ok.Load(), failed.Load(), pool.Stats(), pool.FailureStats())
			if ok.Load() == 0 || failed.Load() == 0 {
				t.Errorf("stress did not cover both outcomes: ok=%d failed=%d", ok.Load(), failed.Load())
			}

			// Every pin went back: the whole pool can be dropped, and it holds
			// no more frames than its capacity.
			pool.Drop()
			if n := pool.Len(); n != 0 {
				t.Errorf("%d pages still pinned after every reader released", n)
			}
			if pool.nframes > pool.cap || len(pool.free) != pool.nframes || reading(pool) != 0 {
				t.Errorf("%d frames (%d spare, %d in flight) for capacity %d", pool.nframes, len(pool.free), reading(pool), pool.cap)
			}
			for id := range want {
				fr, err := pool.Get(PageID(id))
				if err != nil {
					if errors.Is(err, errFlaky) {
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

// A leader whose read fails takes the page out of the table before its
// waiters wake, so none of them finds the claimed frame mapped; the next Get
// leads a read of its own. Each round races the waiters' wake-up against the
// leader, so several rounds are run.
func TestFailedReadUnmapsBeforeWaitersWake(t *testing.T) {
	const waiters = 4
	for round := 0; round < 20; round++ {
		dev := newScriptDevice(t, 4)
		dev.gate = make(chan struct{})
		dev.setFails(2, 1_000)
		pool := NewBufferPool(dev, 4)

		type outcome struct {
			err    error
			mapped bool
		}
		out := make(chan outcome, waiters+1)
		for i := 0; i <= waiters; i++ {
			go func() {
				_, err := pool.Get(2)
				out <- outcome{err, pool.table[2].Load() != nil}
			}()
		}
		deadline := time.Now().Add(5 * time.Second)
		for coalescedCount(pool) < waiters {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d readers coalesced", coalescedCount(pool), waiters)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if n := reading(pool); n != 1 {
			t.Fatalf("%d pages mapped to a claimed frame while one is read, want 1", n)
		}
		close(dev.gate)
		for i := 0; i <= waiters; i++ {
			o := <-out
			if !errors.Is(o.err, errScripted) {
				t.Fatalf("reader of the failing page: %v, want the leader's device error", o.err)
			}
			if o.mapped {
				t.Fatalf("round %d: the failed page was still mapped when a reader woke", round)
			}
		}
		if pool.table[2].Load() != nil {
			t.Fatal("the failed page is still mapped")
		}

		dev.setFails(2, 0)
		before := pool.Stats().Physical
		if stamp, err := readStamp(pool, 2); err != nil || stamp != 2 {
			t.Fatalf("Get after the failure: stamp %d, %v", stamp, err)
		}
		if got := pool.Stats().Physical - before; got != 1 {
			t.Errorf("Get after the failure issued %d reads, want 1", got)
		}
		if coalescedCount(pool) != waiters {
			t.Errorf("Get after the failure joined a read: coalesced %d, want %d", coalescedCount(pool), waiters)
		}
	}
}

// halvesDevice fills one page in two halves and holds each read of it
// between them until gate closes, counting the reads it holds.
type halvesDevice struct {
	Device
	page   PageID
	gate   chan struct{}
	parked atomic.Int32
}

func (d *halvesDevice) ReadPage(id PageID, buf []byte) error {
	if id != d.page {
		return d.Device.ReadPage(id, buf)
	}
	full := make([]byte, PageSize)
	if err := d.Device.ReadPage(id, full); err != nil {
		return err
	}
	copy(buf[:PageSize/2], full)
	d.parked.Add(1)
	<-d.gate
	copy(buf[PageSize/2:], full[PageSize/2:])
	return nil
}

// With every frame pinned, concurrent readers of one cold page read it into
// borrowed buffers; none of them is handed a buffer that is still being
// filled, whether its own or another reader's.
func TestAllFramesPinnedNoHalfPage(t *testing.T) {
	for _, policy := range []Policy{PolicyClock, PolicyLRU} {
		t.Run(policy.String(), func(t *testing.T) {
			mem, want := randomDevice(t, 6, 9)
			dev := &halvesDevice{Device: mem, page: 2, gate: make(chan struct{})}
			pool := NewBufferPool(dev, 2, PoolOptions{Policy: policy})
			a, err := pool.Get(0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := pool.Get(1)
			if err != nil {
				t.Fatal(err)
			}

			const readers = 4
			var done atomic.Int32
			bad := make(chan error, readers)
			for i := 0; i < readers; i++ {
				go func() {
					fr, err := pool.Get(2)
					switch {
					case err != nil:
					case !bytes.Equal(fr.Data(), want[2]):
						err = errors.New("handed a half-filled page")
						fr.Release()
					default:
						fr.Release()
					}
					done.Add(1)
					bad <- err
				}()
			}
			// Hold the gate until every reader is parked in a read, waiting
			// on one, or already served.
			deadline := time.Now().Add(5 * time.Second)
			for int(dev.parked.Load())+int(coalescedCount(pool))+int(done.Load()) < readers && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			if dev.parked.Load() == 0 {
				t.Fatal("no read was held half way")
			}
			close(dev.gate)
			for i := 0; i < readers; i++ {
				if err := <-bad; err != nil {
					t.Error(err)
				}
			}
			if n := pool.Len(); n != 2 {
				t.Errorf("%d pages cached with every frame pinned, want the 2 pinned", n)
			}
			if !bytes.Equal(a.Data(), want[0]) || !bytes.Equal(b.Data(), want[1]) {
				t.Fatal("a pinned frame lost its page")
			}
			a.Release()
			b.Release()
		})
	}
}
