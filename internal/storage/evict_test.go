package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// randomDevice allocates n pages of random bytes, each stamped with its id
// in its first four bytes, and returns the device with a copy of what it
// holds.
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
		binary.LittleEndian.PutUint32(want[i], uint32(id))
		if err := dev.WritePage(id, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	return dev, want
}

// Drop must leave the page a reader holds alone: a cursor half way through
// a record keeps reading the right bytes while the pool is dropped and every
// page is recycled under it.
func TestDropKeepsPinnedFrame(t *testing.T) {
	for _, policy := range []Policy{PolicyClock, PolicyLRU} {
		t.Run(policy.String(), func(t *testing.T) {
			mem, want := randomDevice(t, 12, 5)
			dev := struct{ Device }{mem} // a wrapper: a fresh buffer per miss
			pool := NewBufferPool(dev, 2, PoolOptions{Policy: policy})
			record := append(append([]byte{}, want[3][100:]...), want[4][:200]...)

			c := newCursor(pool, Ref{Page: 3, Off: 100})
			defer c.close()
			head, err := c.next(1000)
			if err != nil {
				t.Fatal(err)
			}
			pool.Drop()
			if pool.Len() != 0 {
				t.Fatalf("Len after Drop = %d, want 0", pool.Len())
			}
			// Recycle the pool, several times over.
			for id := PageID(5); id < 12; id++ {
				data, err := pool.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, want[id]) {
					t.Fatalf("page %d corrupted after Drop", id)
				}
			}
			if !bytes.Equal(head, record[:1000]) {
				t.Fatal("bytes of the held page changed under the cursor")
			}
			rest, err := c.next(len(record) - 1000)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rest, record[1000:]) {
				t.Fatal("record read across Drop is wrong")
			}
		})
	}
}

// A reader holding every page the pool caches does not stop replacement: a
// miss evicts as usual and is cached, nothing is read twice, and the held
// pages keep their bytes.
func TestAllFramesPinnedFallback(t *testing.T) {
	for _, policy := range []Policy{PolicyClock, PolicyLRU} {
		t.Run(policy.String(), func(t *testing.T) {
			mem, want := randomDevice(t, 6, 9)
			pool := NewBufferPool(struct{ Device }{mem}, 2, PoolOptions{Policy: policy})
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
				if !bytes.Equal(c, want[2]) {
					t.Fatal("a miss returned the wrong page")
				}
			}
			if ev := pool.ShardStats()[0].Evictions; ev != 1 {
				t.Errorf("evictions = %d, want 1", ev)
			}
			if s := pool.Stats(); s.Physical != 3 {
				t.Errorf("physical = %d, want 3 (the held pages, then one read and two hits)", s.Physical)
			}
			if !bytes.Equal(a, want[0]) || !bytes.Equal(b, want[1]) {
				t.Fatal("a held page lost its bytes")
			}
		})
	}
}

// errFlaky is the device error flakyDevice fails its reads with.
var errFlaky = errors.New("flaky read")

// flakyDevice fails every-th read with errFlaky after scribbling over the
// caller's buffer, as a transfer that died half way would, and yields in
// some reads so that other readers run while a miss is in flight.
type flakyDevice struct {
	Device
	every uint64
	n     atomic.Uint64
}

func (d *flakyDevice) ReadPage(id PageID, buf []byte) error {
	n := d.n.Add(1)
	if n%4 == 0 {
		runtime.Gosched()
	}
	if n%d.every == 0 {
		for i := range buf {
			buf[i] = 0xEE
		}
		return errFlaky
	}
	return d.Device.ReadPage(id, buf)
}

// Eviction-churn stress (run with -race): many goroutines over pools of zero
// to eight pages check that every page they are handed carries its own
// stamp and bytes, and still does after a reschedule while the others evict
// around it. Hot pages make readers queue on one miss and CLOCK hits race
// the sweep, the tiny pools evict on nearly every miss, reads fail half way
// through a transfer, and the pool is dropped now and then. The pools read
// a wrapper, a fresh buffer per miss, or a MemDevice, which lends its pages.
func TestEvictionChurnStress(t *testing.T) {
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
		lent     bool
	}{
		{1, PoolOptions{}, false},
		{4, PoolOptions{}, false},
		{4, PoolOptions{Policy: PolicyLRU}, false},
		{8, PoolOptions{Policy: PolicyLRU}, false},
		{6, PoolOptions{}, false},
		{0, PoolOptions{}, false},
		{4, PoolOptions{}, true},
		{4, PoolOptions{Policy: PolicyLRU}, true},
	} {
		name := fmt.Sprintf("cap=%d_%v", tc.capacity, tc.opts.Policy)
		if tc.lent {
			name += "_lent"
		}
		t.Run(name, func(t *testing.T) {
			mem, want := randomDevice(t, pages, 11)
			var dev Device = &flakyDevice{Device: mem, every: 7}
			if tc.lent {
				dev = mem
			}
			pool := NewBufferPool(dev, tc.capacity, tc.opts)
			var wg sync.WaitGroup
			var ok, failed atomic.Int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < steps; i++ {
						id := PageID(rng.Intn(4)) // hot: readers queue on one miss
						if rng.Intn(3) == 0 {
							id = PageID(rng.Intn(pages))
						}
						data, err := pool.Get(id)
						switch {
						case err == nil:
						case errors.Is(err, errFlaky):
							failed.Add(1)
							continue
						default:
							t.Errorf("page %d: %v", id, err)
							return
						}
						if pageStamp(data) != uint32(id) || !bytes.Equal(data, want[id]) {
							t.Errorf("page %d: handed stamp %d and other bytes", id, pageStamp(data))
							return
						}
						if rng.Intn(4) == 0 {
							time.Sleep(time.Microsecond) // hold the page across a reschedule
							if !bytes.Equal(data, want[id]) {
								t.Errorf("page %d changed while held", id)
								return
							}
						}
						ok.Add(1)
						if seed == 1 && i%500 == 499 {
							pool.Drop()
						}
					}
				}(int64(w + 1))
			}
			wg.Wait()
			t.Logf("ok=%d failed=%d %v %v", ok.Load(), failed.Load(), pool.Stats(), pool.FailureStats())
			if ok.Load() == 0 || failed.Load() == 0 && !tc.lent {
				t.Errorf("stress did not cover both outcomes: ok=%d failed=%d", ok.Load(), failed.Load())
			}

			// The table maps exactly the pages on the ring, at most capacity.
			if n := pool.Len(); n != len(pool.ring) || n > pool.cap {
				t.Errorf("%d pages mapped, %d on the ring, capacity %d", n, len(pool.ring), pool.cap)
			}
			for _, id := range pool.ring {
				if pool.table[id].Load() == nil {
					t.Errorf("page %d is on the ring but not mapped", id)
				}
			}
			pool.Drop()
			if n := pool.Len(); n != 0 {
				t.Errorf("%d pages still mapped after Drop", n)
			}
			for id := range want {
				data, err := pool.Get(PageID(id))
				if err != nil {
					if errors.Is(err, errFlaky) {
						continue
					}
					t.Fatal(err)
				}
				if !bytes.Equal(data, want[id]) {
					t.Errorf("page %d wrong after the stress", id)
				}
			}
		})
	}
}

// A miss that fails leaves its page unmapped before the readers queued on
// the pool's lock get it, so none of them is handed the failure: the next
// reader misses and asks the device itself. The device's error reaches its
// one reader prefixed once with the page id, and the page then costs one
// more device read, which every other reader shares.
func TestFailedReadUnmapsBeforeWaitersWake(t *testing.T) {
	dev := newScriptDevice(t, 4)
	dev.gate = make(chan struct{})
	dev.setFails(3, 1) // the first read fails
	pool := NewBufferPool(dev, 4)

	const readers = 9
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			data, err := pool.Get(3)
			if err == nil && data[0] != 3 {
				err = errors.New("handed the wrong page")
			}
			errs <- err
		}()
	}
	// The first reader is parked inside ReadPage, holding the pool's lock;
	// give the others time to queue on it, then let the reads go. The
	// outcome does not depend on how many did.
	time.Sleep(20 * time.Millisecond)
	close(dev.gate)
	failed := 0
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			failed++
			if !errors.Is(err, errScripted) || err.Error() != "storage: page 3: "+errScripted.Error() {
				t.Fatalf("failed read: %v, want the device's error prefixed once", err)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d readers saw the one failed read, want 1", failed)
	}
	if fs := pool.FailureStats(); fs != (FailureStats{Permanent: 1}) {
		t.Fatalf("one failed device read should record {Permanent:1}, got %+v", fs)
	}
	if s := pool.Stats(); s != (Stats{Logical: readers, Physical: 2}) {
		t.Fatalf("%v, want %d logical reads and 2 device reads: the failure, then one shared read", s, readers)
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

// With every cached page held by a reader, concurrent readers of one cold
// page are never handed a buffer that is still being filled: one of them
// reads it, the rest wait for that miss and share it, and the held pages
// keep their bytes.
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
			bad := make(chan error, readers)
			for i := 0; i < readers; i++ {
				go func() {
					data, err := pool.Get(2)
					if err == nil && !bytes.Equal(data, want[2]) {
						err = errors.New("handed a half-filled page")
					}
					bad <- err
				}()
			}
			// Hold the gate until one reader is parked in the read and the
			// others have had time to queue behind it.
			deadline := time.Now().Add(5 * time.Second)
			for dev.parked.Load() == 0 && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			if dev.parked.Load() == 0 {
				t.Fatal("no read was held half way")
			}
			time.Sleep(10 * time.Millisecond)
			close(dev.gate)
			for i := 0; i < readers; i++ {
				if err := <-bad; err != nil {
					t.Error(err)
				}
			}
			if n := dev.parked.Load(); n != 1 {
				t.Errorf("%d reads of the cold page, want 1 shared by every reader", n)
			}
			if n := pool.Len(); n != 2 {
				t.Errorf("%d pages cached, want 2", n)
			}
			if !bytes.Equal(a, want[0]) || !bytes.Equal(b, want[1]) {
				t.Fatal("a held page lost its bytes")
			}
		})
	}
}
