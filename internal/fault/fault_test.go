package fault

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mcn/internal/storage"
)

// memDev builds a small in-memory device with n pages of recognisable
// content.
func memDev(t *testing.T, n int) *storage.MemDevice {
	t.Helper()
	dev := storage.NewMemDevice()
	buf := make([]byte, storage.PageSize)
	for i := 0; i < n; i++ {
		id, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i + j)
		}
		if err := dev.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return dev
}

// readAll reads pages 0..n-1 once and returns the per-page outcomes.
func readAll(d *Device, n int) []error {
	buf := make([]byte, storage.PageSize)
	out := make([]error, n)
	for i := 0; i < n; i++ {
		out[i] = d.ReadPage(storage.PageID(i), buf)
	}
	return out
}

func TestDisarmedPassesThrough(t *testing.T) {
	d := Wrap(memDev(t, 8), Options{Seed: 1, ReadTransient: 1, ReadCorrupt: 1})
	for i, err := range readAll(d, 8) {
		if err != nil {
			t.Fatalf("disarmed read of page %d failed: %v", i, err)
		}
	}
	if c := d.Counters(); c != (Counters{}) {
		t.Fatalf("disarmed device injected faults: %+v", c)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	outcomes := func(seed uint64) []bool {
		d := Wrap(memDev(t, 32), Options{Seed: seed, ReadTransient: 0.5})
		d.Arm()
		var out []bool
		for i := 0; i < 200; i++ {
			err := d.ReadPage(storage.PageID(i%32), make([]byte, storage.PageSize))
			out = append(out, err != nil)
		}
		return out
	}
	a, b := outcomes(42), outcomes(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := outcomes(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-op schedules")
	}
}

func TestTransientErrorsAreClassified(t *testing.T) {
	d := Wrap(memDev(t, 1), Options{Seed: 7, ReadTransient: 1})
	d.Arm()
	err := d.ReadPage(0, make([]byte, storage.PageSize))
	if err == nil {
		t.Fatal("p=1 transient injection did not fire")
	}
	if !storage.IsTransient(err) {
		t.Fatalf("injected transient error not classified transient: %v", err)
	}
	if c := d.Counters().ReadTransient; c != 1 {
		t.Fatalf("ReadTransient counter = %d, want 1", c)
	}
}

func TestMaxConsecutiveBoundsFaultRun(t *testing.T) {
	d := Wrap(memDev(t, 1), Options{Seed: 3, ReadTransient: 1, MaxConsecutive: 3})
	d.Arm()
	buf := make([]byte, storage.PageSize)
	fails := 0
	for i := 0; i < 8; i++ {
		if err := d.ReadPage(0, buf); err != nil {
			fails++
			continue
		}
		// Clean read must arrive after exactly MaxConsecutive failures, and
		// the streak resets — the next run fails again.
		if fails != 3 {
			t.Fatalf("clean read after %d consecutive faults, want 3", fails)
		}
		fails = 0
	}
}

func TestCorruptInjectionFlipsOneBit(t *testing.T) {
	dev := memDev(t, 1)
	want := make([]byte, storage.PageSize)
	if err := dev.ReadPage(0, want); err != nil {
		t.Fatal(err)
	}
	d := Wrap(dev, Options{Seed: 11, ReadCorrupt: 1})
	d.Arm()
	got := make([]byte, storage.PageSize)
	if err := d.ReadPage(0, got); err != nil {
		t.Fatalf("corrupt read errored (corruption must be silent): %v", err)
	}
	diff := 0
	for i := range got {
		b := got[i] ^ want[i]
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt read flipped %d bits, want 1", diff)
	}
	if c := d.Counters().ReadCorrupt; c != 1 {
		t.Fatalf("ReadCorrupt counter = %d, want 1", c)
	}
}

func TestFailPageIsPermanentAndUnclassified(t *testing.T) {
	d := Wrap(memDev(t, 2), Options{Seed: 5})
	d.FailPage(1)
	buf := make([]byte, storage.PageSize)
	if err := d.ReadPage(0, buf); err != nil {
		t.Fatalf("unmarked page failed: %v", err)
	}
	for i := 0; i < 3; i++ {
		err := d.ReadPage(1, buf)
		if err == nil {
			t.Fatal("failed page read succeeded")
		}
		if storage.IsTransient(err) {
			t.Fatalf("permanent failure classified transient: %v", err)
		}
	}
	if c := d.Counters().PermanentReads; c != 3 {
		t.Fatalf("PermanentReads = %d, want 3", c)
	}
	d.ClearPage(1)
	if err := d.ReadPage(1, buf); err != nil {
		t.Fatalf("cleared page still fails: %v", err)
	}
}

func TestCorruptPageIsStable(t *testing.T) {
	dev := memDev(t, 1)
	want := make([]byte, storage.PageSize)
	if err := dev.ReadPage(0, want); err != nil {
		t.Fatal(err)
	}
	d := Wrap(dev, Options{Seed: 9})
	d.CorruptPage(0)
	a := make([]byte, storage.PageSize)
	b := make([]byte, storage.PageSize)
	if err := d.ReadPage(0, a); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(0, b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, want) {
		t.Fatal("corrupted page read back clean")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("permanent corruption not stable across reads")
	}
}

func TestLatencySpike(t *testing.T) {
	d := Wrap(memDev(t, 1), Options{Seed: 13, LatencyProb: 1, Latency: 5 * time.Millisecond})
	d.Arm()
	start := time.Now()
	if err := d.ReadPage(0, make([]byte, storage.PageSize)); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Fatalf("read took %v, want >= 5ms spike", el)
	}
	if c := d.Counters().LatencySpikes; c != 1 {
		t.Fatalf("LatencySpikes = %d, want 1", c)
	}
}

func TestWriteTransient(t *testing.T) {
	d := Wrap(memDev(t, 1), Options{Seed: 17, WriteTransient: 1, MaxConsecutive: 1})
	d.Arm()
	buf := make([]byte, storage.PageSize)
	err := d.WritePage(0, buf)
	if err == nil {
		t.Fatal("p=1 write injection did not fire")
	}
	if !storage.IsTransient(err) {
		t.Fatalf("injected write error not transient: %v", err)
	}
	// The streak cap forces the retry through.
	if err := d.WritePage(0, buf); err != nil {
		t.Fatalf("write after streak cap failed: %v", err)
	}
}

func TestRetryingPoolSurvivesTransientOnlyFaults(t *testing.T) {
	// End-to-end over the buffer pool: with MaxRetries >= MaxConsecutive,
	// every read eventually succeeds despite heavy transient injection.
	dev := memDev(t, 16)
	fd := Wrap(dev, Options{Seed: 21, ReadTransient: 0.5, MaxConsecutive: 2})
	pool := storage.NewBufferPool(fd, 4, storage.PoolOptions{
		Retry: storage.RetryPolicy{MaxRetries: 2, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond},
	})
	fd.Arm()
	want := make([]byte, storage.PageSize)
	for i := 0; i < 200; i++ {
		id := storage.PageID(i % 16)
		fr, err := pool.Get(id)
		if err != nil {
			t.Fatalf("read %d of page %d failed despite retry budget: %v", i, id, err)
		}
		if err := dev.ReadPage(id, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fr.Data(), want) {
			t.Fatalf("page %d content mismatch", id)
		}
		fr.Release()
		pool.Drop() // force a real read next round
	}
	fs := pool.FailureStats()
	if fs.Retries == 0 {
		t.Fatal("no retries recorded under p=0.5 injection")
	}
	if fs.Transient != 0 || fs.Permanent != 0 {
		t.Fatalf("unexpected failures: %+v", fs)
	}
}

func TestPermanentFaultSurfacesThroughPool(t *testing.T) {
	fd := Wrap(memDev(t, 4), Options{Seed: 23})
	pool := storage.NewBufferPool(fd, 4, storage.PoolOptions{Retry: storage.RetryPolicy{MaxRetries: 3}})
	fd.FailPage(2)
	if _, err := pool.Get(2); err == nil { // a failed Get pins nothing
		t.Fatal("read of failed page succeeded")
	} else if storage.IsTransient(err) {
		t.Fatalf("permanent fault surfaced as transient: %v", err)
	}
	if fs := pool.FailureStats(); fs.Permanent != 1 || fs.Retries != 0 {
		t.Fatalf("want 1 permanent failure, 0 retries; got %+v", fs)
	}
	// The failure must not poison the frame table: clearing the fault makes
	// the page readable again.
	fd.ClearPage(2)
	if fr, err := pool.Get(2); err != nil {
		t.Fatalf("page still failing after ClearPage: %v", err)
	} else {
		fr.Release()
	}
	var errNil error
	if errors.Is(errNil, storage.ErrChecksum) {
		t.Fatal("nil error must not match ErrChecksum")
	}
}
