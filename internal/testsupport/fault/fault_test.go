package fault

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mcn/internal/gen"
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
	d := Wrap(memDev(t, 8), Options{Seed: 1, ReadCorrupt: 1, LatencyProb: 1, Latency: time.Second})
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
	dev := memDev(t, 32)
	outcomes := func(seed uint64) []bool {
		d := Wrap(dev, Options{Seed: seed, ReadCorrupt: 0.5})
		d.Arm()
		got, want := make([]byte, storage.PageSize), make([]byte, storage.PageSize)
		var out []bool
		for i := 0; i < 200; i++ {
			id := storage.PageID(i % 32)
			if err := d.ReadPage(id, got); err != nil {
				t.Fatal(err)
			}
			if err := dev.ReadPage(id, want); err != nil {
				t.Fatal(err)
			}
			out = append(out, !bytes.Equal(got, want))
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
		if errors.Is(err, storage.ErrChecksum) {
			t.Fatalf("unreadable page classified as corrupt: %v", err)
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

// testDB builds a small database image: a pool opened over it verifies
// every page it reads against the image's checksum table.
func testDB(t *testing.T) *storage.MemDevice {
	t.Helper()
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 300, Facilities: 150, Clusters: 4, D: 3, Seed: 7, Queries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := storage.BuildMem(inst.Graph)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// End-to-end over the buffer pool of an opened database: under heavy
// bit-flip and latency injection, every read through the pool either hands
// out the page's true content or fails once with ErrChecksum, one counted
// checksum error per corrupt read, and a failure never poisons the pool.
func TestRetryingPoolSurvivesTransientOnlyFaults(t *testing.T) {
	dev := testDB(t)
	fd := Wrap(dev, Options{Seed: 21, ReadCorrupt: 0.5, LatencyProb: 0.1, Latency: time.Microsecond})
	net, err := storage.OpenOptions(fd, 0.5, storage.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool := net.Pool()
	// The checksum table is the image's last page, and it covers every page
	// before it but the header.
	pages := dev.NumPages() - 1
	if pages >= storage.PageSize/8 {
		t.Fatalf("%d pages outgrow a one-page checksum table", pages)
	}
	fd.Arm()
	want := make([]byte, storage.PageSize)
	var ok, failed int64
	for i := 0; i < 400; i++ {
		id := storage.PageID(1 + i%(pages-1))
		if err := dev.ReadPage(id, want); err != nil {
			t.Fatal(err)
		}
		data, err := pool.Get(id)
		if err != nil {
			if !errors.Is(err, storage.ErrChecksum) {
				t.Fatalf("read %d of page %d: %v, want ErrChecksum", i, id, err)
			}
			failed++
			continue
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("page %d: the pool handed out corrupt content", id)
		}
		ok++
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("schedule did not cover both outcomes: %d ok, %d failed", ok, failed)
	}
	fs, fc := pool.FailureStats(), fd.Counters()
	if fs != (storage.FailureStats{Checksum: failed}) || fc.ReadCorrupt != failed {
		t.Fatalf("%d failed reads, %d corrupt reads injected, failure stats %+v", failed, fc.ReadCorrupt, fs)
	}
}

func TestPermanentFaultSurfacesThroughPool(t *testing.T) {
	fd := Wrap(memDev(t, 4), Options{Seed: 23})
	pool := storage.NewBufferPool(fd, 4)
	fd.FailPage(2)
	if _, err := pool.Get(2); err == nil {
		t.Fatal("read of failed page succeeded")
	} else if want := "storage: page 2: fault: page 2 permanently unreadable"; err.Error() != want {
		t.Fatalf("permanent fault surfaced as %q, want %q", err, want)
	}
	if fs := pool.FailureStats(); fs != (storage.FailureStats{Permanent: 1}) {
		t.Fatalf("want 1 permanent failure; got %+v", fs)
	}
	// The failure must not poison the page table: clearing the fault makes
	// the page readable again.
	fd.ClearPage(2)
	if _, err := pool.Get(2); err != nil {
		t.Fatalf("page still failing after ClearPage: %v", err)
	}
	var errNil error
	if errors.Is(errNil, storage.ErrChecksum) {
		t.Fatal("nil error must not match ErrChecksum")
	}
}
