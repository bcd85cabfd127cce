package storage

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// errScripted is the device error scriptDevice fails its reads with.
var errScripted = errors.New("scripted read failure")

// scriptDevice wraps a device with per-page scripted failures and
// an optional gate that holds every read until released, so tests can park a
// leader mid-read while waiters pile onto the coalesced record.
type scriptDevice struct {
	Device
	gate chan struct{} // nil = no gating

	mu    sync.Mutex
	fails map[PageID]int // remaining failures per page
}

func newScriptDevice(t *testing.T, pages int) *scriptDevice {
	t.Helper()
	dev := NewMemDevice()
	buf := make([]byte, PageSize)
	for i := 0; i < pages; i++ {
		id, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i)
		if err := dev.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return &scriptDevice{Device: dev, fails: make(map[PageID]int)}
}

func (d *scriptDevice) setFails(id PageID, n int) {
	d.mu.Lock()
	d.fails[id] = n
	d.mu.Unlock()
}

func (d *scriptDevice) ReadPage(id PageID, buf []byte) error {
	if d.gate != nil {
		<-d.gate
	}
	d.mu.Lock()
	n := d.fails[id]
	if n > 0 {
		d.fails[id] = n - 1
		d.mu.Unlock()
		return errScripted
	}
	d.mu.Unlock()
	return d.Device.ReadPage(id, buf)
}

// coalescedCount sums the pool's coalesced-read counters.
func coalescedCount(pool *BufferPool) int64 {
	var n int64
	for _, s := range pool.ShardStats() {
		n += s.Coalesced
	}
	return n
}

// When the leader of a coalesced read fails, every waiter must observe that
// same error, prefixed once with the page id, from one device read — and the
// failure must not be cached, so the next read asks the device again.
func TestCoalescedWaitersObserveLeaderRetryError(t *testing.T) {
	dev := newScriptDevice(t, 4)
	dev.gate = make(chan struct{})
	dev.setFails(3, 1) // the leader's one read fails
	pool := NewBufferPool(dev, 4)

	const waiters = 8
	errs := make(chan error, waiters+1)
	for i := 0; i < waiters+1; i++ {
		go func() {
			_, err := readStamp(pool, 3)
			errs <- err
		}()
	}
	// The leader is parked inside ReadPage by the gate; wait until every
	// other goroutine has registered on its inflight record, then let the
	// read fail.
	deadline := time.Now().Add(5 * time.Second)
	for coalescedCount(pool) < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d readers coalesced", coalescedCount(pool), waiters)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(dev.gate)
	for i := 0; i < waiters+1; i++ {
		err := <-errs
		if err == nil {
			t.Fatal("read of failing page succeeded")
		}
		if !errors.Is(err, errScripted) || err.Error() != "storage: page 3: "+errScripted.Error() {
			t.Fatalf("coalesced error = %v, want the device's error prefixed once", err)
		}
	}
	fs := pool.FailureStats()
	if fs != (FailureStats{Permanent: 1}) {
		t.Fatalf("one failed device read should record {Permanent:1}, got %+v", fs)
	}
	if ph := pool.Stats().Physical; ph != 1 {
		t.Fatalf("%d device reads for one coalesced miss, want 1", ph)
	}
	// The error was shared, not cached: the next read asks the device again
	// and, the fault spent, succeeds.
	if _, err := readStamp(pool, 3); err != nil {
		t.Fatalf("page still failing after fault cleared: %v", err)
	}
}

// A device error that already names the storage layer is surfaced as it is,
// not prefixed a second time.
func TestStorageErrorNotDoublePrefixed(t *testing.T) {
	pool := NewBufferPool(stampDevice(t, 2), 2)
	_, err := readStamp(pool, 9) // beyond the device
	if err == nil || strings.Count(err.Error(), "storage:") != 1 {
		t.Fatalf("read of a missing page: %v, want one storage: prefix", err)
	}
}
