package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// scriptDevice wraps a device with per-page scripted transient failures and
// an optional gate that holds every read until released, so tests can park a
// leader mid-read while waiters pile onto the coalesced record.
type scriptDevice struct {
	Device
	gate chan struct{} // nil = no gating

	mu    sync.Mutex
	fails map[PageID]int // remaining transient failures per page
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
		return MarkTransient(fmt.Errorf("scripted transient failure on page %d", id))
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

// When the leader of a coalesced read exhausts its retry budget, every waiter
// must observe that same transient-classified error — and the failure must
// not be cached, so the next read retries the device.
func TestCoalescedWaitersObserveLeaderRetryError(t *testing.T) {
	dev := newScriptDevice(t, 4)
	dev.gate = make(chan struct{})
	dev.setFails(3, 1_000) // beyond any retry budget
	pool := NewBufferPool(dev, 4, PoolOptions{
		Retry: RetryPolicy{MaxRetries: 2, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond},
	})

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
	// retry schedule run.
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
		if !IsTransient(err) {
			t.Fatalf("coalesced error lost its transient classification: %v", err)
		}
	}
	fs := pool.FailureStats()
	if fs.Transient != 1 || fs.Retries != 2 {
		t.Fatalf("one leader with 2 retries should record {Transient:1 Retries:2}, got %+v", fs)
	}
	// The error was shared, not cached: a later read retries the device and
	// succeeds once the fault clears.
	dev.setFails(3, 0)
	if _, err := readStamp(pool, 3); err != nil {
		t.Fatalf("page still failing after fault cleared: %v", err)
	}
}

// A waiter whose own context is live must not inherit the leader's
// cancellation: it re-issues the read as the new leader and gets the data.
func TestCoalescedWaiterReissuesAfterLeaderCancel(t *testing.T) {
	dev := newScriptDevice(t, 8)
	dev.setFails(5, 1_000)
	pool := NewBufferPool(dev, 4, PoolOptions{
		Retry: RetryPolicy{MaxRetries: 50, BaseBackoff: 20 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	})

	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := readStampCtx(leaderCtx, pool, 5)
		leaderErr <- err
	}()
	// Wait for the leader to fail its first attempt and enter backoff, then
	// join as a waiter with an independent, live context.
	deadline := time.Now().Add(5 * time.Second)
	for pool.FailureStats().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never entered its retry schedule")
		}
		time.Sleep(time.Millisecond)
	}
	waiterErr := make(chan error, 1)
	var waiterStamp uint32
	go func() {
		stamp, err := readStampCtx(context.Background(), pool, 5)
		waiterStamp = stamp
		waiterErr <- err
	}()
	for coalescedCount(pool) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced onto the leader's read")
		}
		time.Sleep(time.Millisecond)
	}
	// Kill only the leader's context: its backoff sleep aborts with a ctx
	// error. Then heal the page — the waiter's re-issued read (it is the new
	// leader now, retrying under its own live ctx) must succeed.
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	dev.setFails(5, 0)
	if err := <-waiterErr; err != nil {
		t.Fatalf("live waiter inherited the leader's cancellation: %v", err)
	}
	if waiterStamp != 5 {
		t.Fatalf("waiter read wrong content: %d", waiterStamp)
	}
}

// Context cancellation must cut a retry backoff sleep short instead of
// running out the full schedule.
func TestCtxCancelAbortsBackoffSleep(t *testing.T) {
	dev := newScriptDevice(t, 2)
	dev.setFails(1, 1_000)
	pool := NewBufferPool(dev, 4, PoolOptions{
		// Full schedule would sleep minutes; the deadline must cut it off.
		Retry: RetryPolicy{MaxRetries: 1_000, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Minute},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := readStampCtx(ctx, pool, 1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("read succeeded on an always-failing page")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to cut the backoff sleep", elapsed)
	}
}
