package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcn/internal/core"
	"mcn/internal/engine"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/rescache"
	"mcn/internal/storage"
	"mcn/internal/testsupport/fault"
	"mcn/internal/vec"
)

// schedules returns how many randomized fault schedules a test runs: the
// CHAOS_SCHEDULES environment variable when set, else a -short/long default.
// The long default satisfies the 1000-schedule acceptance bar via make chaos.
func schedules(t *testing.T, short, long int) int {
	if s := os.Getenv("CHAOS_SCHEDULES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_SCHEDULES=%q", s)
		}
		return n
	}
	if testing.Short() {
		return short
	}
	return long
}

// testDB builds one small database shared by every schedule of a test. The
// MemDevice is read-only after Build, so schedules reuse it through fresh
// fault wrappers and pools.
func testDB(t *testing.T) (*graph.Graph, *storage.MemDevice) {
	t.Helper()
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 300, Facilities: 150, Clusters: 4, D: 3,
		Dist: gen.AntiCorrelated, Seed: 7, Queries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := storage.BuildMem(inst.Graph)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Graph, dev
}

// workload builds the mixed request batch of the PR 5/6 equivalence suites:
// skylines, top-k, nearest and budget queries at random locations, both
// engines.
func workload(g *graph.Graph, seed int64, n int) []engine.Request {
	locs := gen.QueryLocations(g, n, seed)
	agg := vec.NewWeighted(1, 2, 1)
	reqs := make([]engine.Request, n)
	for i, loc := range locs {
		r := engine.Request{Loc: loc, Timeout: 30 * time.Second}
		if i%2 == 1 {
			r.Opts.Engine = core.CEA
		}
		switch i % 4 {
		case 0:
			r.Kind = engine.Skyline
		case 1:
			r.Kind = engine.TopK
			r.Agg = agg
			r.K = 5
		case 2:
			r.Kind = engine.Nearest
			r.CostIdx = i % 3
			r.K = 4
		case 3:
			r.Kind = engine.Within
			r.Budget = vec.Of(40, 40, 40)
		}
		reqs[i] = r
	}
	return reqs
}

// open builds a network over dev behind a 64-page pool.
func open(t *testing.T, dev storage.Device) *storage.Network {
	t.Helper()
	net, err := storage.OpenWithPool(dev, storage.NewBufferPool(dev, 64))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func run(net *storage.Network, reqs []engine.Request) []engine.Response {
	ex := engine.New(net, engine.Config{Workers: 4})
	return ex.Execute(context.Background(), reqs)
}

// resultEqual compares two results bit-identically: ids, every cost
// component (by Float64bits — unknown components are NaN, which DeepEqual
// would falsely report as unequal), scores and work statistics (core.Stats
// counts algorithmic work only, so it is fault-invariant).
func resultEqual(a, b *core.Result) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Stats != b.Stats || len(a.Facilities) != len(b.Facilities) {
		return false
	}
	for i := range a.Facilities {
		fa, fb := a.Facilities[i], b.Facilities[i]
		if fa.ID != fb.ID || math.Float64bits(fa.Score) != math.Float64bits(fb.Score) || len(fa.Costs) != len(fb.Costs) {
			return false
		}
		for j := range fa.Costs {
			if math.Float64bits(fa.Costs[j]) != math.Float64bits(fb.Costs[j]) {
				return false
			}
		}
	}
	return true
}

// mustMatch asserts the faulted responses are bit-identical to the
// fault-free ones: same results, no errors.
func mustMatch(t *testing.T, tag string, want, got []engine.Response) {
	t.Helper()
	for i := range want {
		if got[i].Err != nil {
			t.Fatalf("%s: query %d failed: %v", tag, i, got[i].Err)
		}
		if !resultEqual(want[i].Result, got[i].Result) {
			t.Fatalf("%s: query %d result diverged from fault-free run", tag, i)
		}
	}
}

// mustMatchOrChecksum asserts every faulted response is the fault-free
// answer or an error wrapping ErrChecksum, and returns how many failed.
func mustMatchOrChecksum(t *testing.T, tag string, want, got []engine.Response) int {
	t.Helper()
	failed := 0
	for i := range want {
		if got[i].Err != nil {
			if !errors.Is(got[i].Err, storage.ErrChecksum) {
				t.Fatalf("%s: query %d failed with %v, want ErrChecksum in the chain", tag, i, got[i].Err)
			}
			failed++
			continue
		}
		if !resultEqual(want[i].Result, got[i].Result) {
			t.Fatalf("%s: query %d result diverged from fault-free run", tag, i)
		}
	}
	return failed
}

// checkGoroutines fails the test if goroutines leaked relative to start,
// allowing the runtime a moment to retire finished ones.
func checkGoroutines(t *testing.T, start int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= start {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d at start, %d after settle", start, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTransientOnlySchedules is the headline chaos invariant: with random
// bit flips and latency spikes injected on a significant fraction of reads,
// every query of every schedule ends in the fault-free answer or an error
// wrapping ErrChecksum — corruption is never handed out — each corrupt read
// is counted once, and no failure poisons the pool: the disarmed rerun over
// the warm pool is byte-identical to the fault-free run.
func TestTransientOnlySchedules(t *testing.T) {
	g, dev := testDB(t)
	reqs := workload(g, 1, 16)
	want := run(open(t, dev), reqs)
	for _, w := range want {
		if w.Err != nil {
			t.Fatalf("fault-free run failed: %v", w.Err)
		}
	}
	start := runtime.NumGoroutine()
	n := schedules(t, 40, 1000)
	failed := 0
	for s := 0; s < n; s++ {
		fd := fault.Wrap(dev, fault.Options{
			Seed:        uint64(s + 1),
			ReadCorrupt: 0.05,
			LatencyProb: 0.05,
			Latency:     20 * time.Microsecond,
		})
		net := open(t, fd)
		fd.Arm()
		failed += mustMatchOrChecksum(t, fmt.Sprintf("schedule %d (armed)", s), want, run(net, reqs))
		fs, fc := net.FailureStats(), fd.Counters()
		if fs != (storage.FailureStats{Checksum: fc.ReadCorrupt}) {
			t.Fatalf("schedule %d: %d corrupt reads injected, failure stats %+v", s, fc.ReadCorrupt, fs)
		}
		// Page-table consistency: with injection off, the warm pool must
		// serve the same answers — a poisoned page would diverge here.
		fd.Disarm()
		mustMatch(t, fmt.Sprintf("schedule %d (disarmed rerun)", s), want, run(net, reqs))
	}
	if failed == 0 || failed == n*len(reqs) {
		t.Fatalf("%d of %d queries failed: the schedules did not cover both outcomes", failed, n*len(reqs))
	}
	checkGoroutines(t, start)
}

// TestCorruptionSchedules injects silent single-bit corruption: the checksum
// table must turn every hit into one counted ErrChecksum, so each query ends
// in the fault-free answer or that classified error, and a query fails only
// in a schedule that corrupted a read.
func TestCorruptionSchedules(t *testing.T) {
	g, dev := testDB(t)
	reqs := workload(g, 2, 16)
	want := run(open(t, dev), reqs)
	n := schedules(t, 20, 200)
	for s := 0; s < n; s++ {
		fd := fault.Wrap(dev, fault.Options{
			Seed:        uint64(1000 + s),
			ReadCorrupt: 0.08,
		})
		net := open(t, fd)
		fd.Arm()
		failed := mustMatchOrChecksum(t, fmt.Sprintf("schedule %d", s), want, run(net, reqs))
		fs, fc := net.FailureStats(), fd.Counters()
		if fs.Checksum != fc.ReadCorrupt {
			t.Fatalf("schedule %d: %d corrupt reads injected but %d checksum errors counted",
				s, fc.ReadCorrupt, fs.Checksum)
		}
		if failed > 0 && fs.Checksum == 0 {
			t.Fatalf("schedule %d: %d queries failed without a corrupt read", s, failed)
		}
	}
}

// TestPermanentFaults marks pages permanently unreadable mid-workload: every
// affected query must return a promptly classified storage error naming the
// page;
// unaffected queries must still match the baseline; and clearing the fault
// must restore full correctness (no poisoned pages, no stale cache).
func TestPermanentFaults(t *testing.T) {
	g, dev := testDB(t)
	reqs := workload(g, 3, 16)
	want := run(open(t, dev), reqs)
	start := runtime.NumGoroutine()
	n := schedules(t, 10, 100)
	for s := 0; s < n; s++ {
		fd := fault.Wrap(dev, fault.Options{Seed: uint64(2000 + s)})
		net := open(t, fd)
		// Fail a pseudo-random data page (never the header, which is read
		// before the pool exists).
		victim := storage.PageID(1 + (s*2654435761)%(dev.NumPages()-1))
		fd.FailPage(victim)
		deadline := time.Now().Add(25 * time.Second)
		got := run(net, reqs)
		if time.Now().After(deadline) {
			t.Fatalf("schedule %d: workload overran its deadline", s)
		}
		failed := 0
		for i, r := range got {
			if r.Err == nil {
				if !resultEqual(want[i].Result, r.Result) {
					t.Fatalf("schedule %d: unaffected query %d diverged", s, i)
				}
				continue
			}
			failed++
			if page := fmt.Sprintf("storage: page %d: ", victim); !strings.Contains(r.Err.Error(), page) {
				t.Fatalf("schedule %d: permanent fault surfaced as %v, want %q in it", s, r.Err, page)
			}
			if errors.Is(r.Err, context.DeadlineExceeded) || errors.Is(r.Err, context.Canceled) {
				t.Fatalf("schedule %d: permanent fault surfaced as %v instead of an I/O error", s, r.Err)
			}
		}
		if fs := net.FailureStats(); failed > 0 && fs.Permanent == 0 {
			t.Fatalf("schedule %d: %d queries failed but Permanent counter is 0", s, failed)
		}
		// Clearing the fault must restore the baseline: a failed read never
		// enters the page table, so nothing poisonous is cached.
		fd.ClearPage(victim)
		mustMatch(t, fmt.Sprintf("schedule %d (cleared)", s), want, run(net, reqs))
	}
	checkGoroutines(t, start)
}

// TestPermanentCorruptionClassified marks a page as stably bit-flipped: the
// checksum layer must surface ErrChecksum, never silently wrong results.
func TestPermanentCorruptionClassified(t *testing.T) {
	g, dev := testDB(t)
	reqs := workload(g, 4, 16)
	want := run(open(t, dev), reqs)
	fd := fault.Wrap(dev, fault.Options{Seed: 31})
	net := open(t, fd)
	victim := storage.PageID(1 + dev.NumPages()/2)
	fd.CorruptPage(victim)
	got := run(net, reqs)
	failed := 0
	for i, r := range got {
		if r.Err == nil {
			if !resultEqual(want[i].Result, r.Result) {
				t.Fatalf("query %d returned silently wrong result under corruption", i)
			}
			continue
		}
		failed++
		if !errors.Is(r.Err, storage.ErrChecksum) {
			t.Fatalf("corruption surfaced as %v, want ErrChecksum in the chain", r.Err)
		}
	}
	if failed == 0 {
		t.Skipf("no query touched corrupted page %d; widen the workload", victim)
	}
	if fs := net.FailureStats(); fs.Checksum == 0 || fs.Permanent != 0 {
		t.Fatalf("permanent corruption should count checksum errors only: %+v", fs)
	}
}

// TestResultCacheStaysRetryableUnderFaults wires the executor's result cache
// into a faulted run: a singleflight leader failing on a permanent I/O error
// must not cache the failure — after the fault clears, the same key must
// compute and then serve hits, and no stale/error value may ever be served.
func TestResultCacheStaysRetryableUnderFaults(t *testing.T) {
	g, dev := testDB(t)
	locs := gen.QueryLocations(g, 1, 9)
	req := engine.Request{Kind: engine.Skyline, Loc: locs[0], Timeout: 30 * time.Second}

	fd := fault.Wrap(dev, fault.Options{Seed: 41})
	// No page cache: every query reads the device, so a failed page is seen.
	net, err := storage.OpenWithPool(fd, storage.NewBufferPool(fd, 0))
	if err != nil {
		t.Fatal(err)
	}
	ex := engine.New(net, engine.Config{Workers: 2})
	ex.SetCache(rescache.New(rescache.Options{Entries: 32}))

	want := ex.Do(context.Background(), req)
	if want.Err != nil {
		t.Fatalf("fault-free query failed: %v", want.Err)
	}
	if !want.Cached {
		// Second identical query must hit.
		if r := ex.Do(context.Background(), req); !r.Cached {
			t.Fatal("repeat query did not hit the result cache")
		}
	}

	// Fail every page, start over with a fresh cache, and observe a
	// classified error — then clear and require a correct, cacheable
	// recompute.
	for p := 1; p < dev.NumPages(); p++ {
		fd.FailPage(storage.PageID(p))
	}
	ex.SetCache(rescache.New(rescache.Options{Entries: 32}))
	r := ex.Do(context.Background(), req)
	if r.Err == nil {
		t.Fatal("query succeeded with every page failed")
	}
	if r.Cached {
		t.Fatal("error response marked as served from cache")
	}
	for p := 1; p < dev.NumPages(); p++ {
		fd.ClearPage(storage.PageID(p))
	}
	r = ex.Do(context.Background(), req)
	if r.Err != nil {
		t.Fatalf("key stayed poisoned after fault cleared: %v", r.Err)
	}
	if !resultEqual(want.Result, r.Result) {
		t.Fatal("recomputed result diverged from fault-free run")
	}
	if r = ex.Do(context.Background(), req); !r.Cached {
		t.Fatal("recomputed result was not cached")
	}
}
