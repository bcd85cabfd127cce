package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/storage"
	"mcn/internal/vec"
)

// testInstance builds a small synthetic network with query locations.
func testInstance(t testing.TB) *gen.Instance {
	t.Helper()
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 1_500, Facilities: 200, Clusters: 4, D: 3, Seed: 7, Queries: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// sources returns the in-memory and disk-resident views of one instance.
func sources(t testing.TB, inst *gen.Instance) map[string]expand.Source {
	t.Helper()
	dev, err := storage.BuildMem(inst.Graph)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := storage.OpenOptions(dev, 0.05, storage.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]expand.Source{
		"memory": expand.NewMemorySource(inst.Graph),
		"disk":   disk,
	}
}

// mixedRequests builds a batch cycling through all four query kinds.
func mixedRequests(inst *gen.Instance, n int) []Request {
	agg := vec.NewWeighted(0.5, 0.3, 0.2)
	budget := vec.Of(400, 400, 400)
	reqs := make([]Request, n)
	for i := range reqs {
		loc := inst.Queries[i%len(inst.Queries)]
		switch i % 4 {
		case 0:
			reqs[i] = Request{Kind: Skyline, Loc: loc, Opts: core.Options{Engine: core.CEA}}
		case 1:
			reqs[i] = Request{Kind: TopK, Loc: loc, Agg: agg, K: 3}
		case 2:
			reqs[i] = Request{Kind: Nearest, Loc: loc, CostIdx: i % 3, K: 5}
		case 3:
			reqs[i] = Request{Kind: Within, Loc: loc, Budget: budget}
		}
	}
	return reqs
}

func ids(res *core.Result) []graph.FacilityID {
	if res == nil {
		return nil
	}
	out := make([]graph.FacilityID, len(res.Facilities))
	for i, f := range res.Facilities {
		out[i] = f.ID
	}
	return out
}

// The batch executor must produce, under 8-way concurrency over one shared
// network (in-memory and disk-resident alike), exactly the answers the same
// requests produce sequentially. Run with -race.
func TestExecutorMatchesSequential(t *testing.T) {
	inst := testInstance(t)
	for name, src := range sources(t, inst) {
		t.Run(name, func(t *testing.T) {
			reqs := mixedRequests(inst, 64)

			// Sequential reference: a single-worker executor.
			seq := New(src, Config{Workers: 1})
			want := seq.Execute(context.Background(), reqs)

			exec := New(src, Config{Workers: 8})
			got := exec.Execute(context.Background(), reqs)
			if len(got) != len(reqs) {
				t.Fatalf("got %d responses for %d requests", len(got), len(reqs))
			}
			for i := range got {
				if got[i].Err != nil {
					t.Fatalf("request %d (%v): %v", i, reqs[i].Kind, got[i].Err)
				}
				if !reflect.DeepEqual(ids(got[i].Result), ids(want[i].Result)) {
					t.Errorf("request %d (%v): concurrent %v != sequential %v",
						i, reqs[i].Kind, ids(got[i].Result), ids(want[i].Result))
				}
			}
			s := exec.Stats()
			if s.Completed != int64(len(reqs)) || s.Failed != 0 {
				t.Errorf("stats = %+v, want %d completed", s, len(reqs))
			}
			if s.MeanLatency() <= 0 || s.MaxLatency < s.MeanLatency() {
				t.Errorf("implausible latency stats %+v", s)
			}
		})
	}
}

// Concurrent Do calls from many goroutines share the worker bound and the
// stats, without racing (run with -race).
func TestExecutorConcurrentDo(t *testing.T) {
	inst := testInstance(t)
	src := expand.NewMemorySource(inst.Graph)
	exec := New(src, Config{Workers: 4})
	reqs := mixedRequests(inst, 32)

	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := exec.Do(context.Background(), reqs[i])
			errs[i] = resp.Err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	if got := exec.Stats().Queries(); got != int64(len(reqs)) {
		t.Errorf("stats count %d queries, want %d", got, len(reqs))
	}
}

// gaugeSource tracks the peak number of in-flight source accesses, yielding
// the processor inside each call so any overlap beyond the executor's bound
// gets scheduled and observed.
type gaugeSource struct {
	expand.Source
	mu       sync.Mutex
	cur, max int
}

func (s *gaugeSource) Adjacency(v graph.NodeID) ([]graph.AdjEntry, error) {
	s.mu.Lock()
	s.cur++
	if s.cur > s.max {
		s.max = s.cur
	}
	s.mu.Unlock()
	runtime.Gosched()
	defer func() {
		s.mu.Lock()
		s.cur--
		s.mu.Unlock()
	}()
	return s.Source.Adjacency(v)
}

// The parallelism bound must hold across overlapping Execute and Do callers
// on one executor: every query path acquires the shared semaphore, so source
// accesses can never overlap more than Workers deep.
func TestExecutorBoundSharedAcrossCallers(t *testing.T) {
	inst := testInstance(t)
	src := &gaugeSource{Source: expand.NewMemorySource(inst.Graph)}
	exec := New(src, Config{Workers: 2})

	// Top-k only: enough source traffic to expose overlap without the full
	// mixed workload's runtime.
	agg := vec.NewWeighted(1, 1, 1)
	batch := make([]Request, 6)
	for i := range batch {
		batch[i] = Request{Kind: TopK, Loc: inst.Queries[i%len(inst.Queries)], Agg: agg, K: 3}
	}
	var wg sync.WaitGroup
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, resp := range exec.Execute(context.Background(), batch) {
				if resp.Err != nil {
					t.Error(resp.Err)
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if resp := exec.Do(context.Background(), Request{Kind: Skyline, Loc: inst.Queries[i%len(inst.Queries)]}); resp.Err != nil {
				t.Error(resp.Err)
			}
		}(i)
	}
	wg.Wait()
	if src.max > 2 {
		t.Errorf("observed %d concurrent source accesses, executor bound is 2", src.max)
	}
}

// A cancelled context fails queued queries without running them and aborts
// in-flight queries mid-expansion.
func TestExecutorCancellation(t *testing.T) {
	inst := testInstance(t)
	src := expand.NewMemorySource(inst.Graph)
	exec := New(src, Config{Workers: 2})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := exec.Execute(ctx, mixedRequests(inst, 8))
	for i, resp := range got {
		if !errors.Is(resp.Err, context.Canceled) {
			t.Errorf("request %d: err = %v, want context.Canceled", i, resp.Err)
		}
		if resp.Result != nil {
			t.Errorf("request %d: got a result from a cancelled query", i)
		}
	}
	if s := exec.Stats(); s.Canceled != 8 {
		t.Errorf("stats.Canceled = %d, want 8", s.Canceled)
	}
}

// Per-request timeouts abort long queries mid-flight through the interrupt
// hook rather than letting them run to completion.
func TestExecutorTimeout(t *testing.T) {
	inst := testInstance(t)
	src := expand.NewMemorySource(inst.Graph)
	exec := New(src, Config{Workers: 1, Timeout: time.Nanosecond})

	resp := exec.Do(context.Background(), Request{Kind: Skyline, Loc: inst.Queries[0]})
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", resp.Err)
	}

	// A per-request timeout overrides the executor default.
	resp = exec.Do(context.Background(), Request{Kind: Skyline, Loc: inst.Queries[0], Timeout: time.Minute})
	if resp.Err != nil {
		t.Fatalf("generous per-request timeout still failed: %v", resp.Err)
	}
}

// A panicking query must not take down its worker or the batch: the panic is
// converted to that query's error and every other query still answers.
func TestExecutorPanicIsolation(t *testing.T) {
	inst := testInstance(t)
	src := expand.NewMemorySource(inst.Graph)
	exec := New(src, Config{Workers: 4})

	reqs := mixedRequests(inst, 12)
	reqs[5] = Request{Kind: TopK, Loc: inst.Queries[0], Agg: nil, K: 2} // nil aggregate panics in core
	got := exec.Execute(context.Background(), reqs)
	for i, resp := range got {
		if i == 5 {
			if resp.Err == nil || !strings.Contains(resp.Err.Error(), "panicked") {
				t.Errorf("poisoned request: err = %v, want panic error", resp.Err)
			}
			continue
		}
		if resp.Err != nil {
			t.Errorf("request %d: %v", i, resp.Err)
		}
	}
	s := exec.Stats()
	if s.Panics != 1 || s.Failed != 1 || s.Completed != int64(len(reqs)-1) {
		t.Errorf("stats = %+v, want 1 panic, 1 failed, %d completed", s, len(reqs)-1)
	}
}

// damagedDisk is a disk network one of whose adjacency records names a
// neighbour one past the node id space the database header declares. It
// damages both ways of reading a record: Adjacency, and the AppendAdjacency
// the embedded store would otherwise promote — the method expansions and
// the CEA memo call in Adjacency's place when a source has it.
type damagedDisk struct{ *storage.Network }

func (d damagedDisk) Adjacency(v graph.NodeID) ([]graph.AdjEntry, error) {
	entries, _, err := d.AppendAdjacency(nil, nil, v)
	return entries, err
}

func (d damagedDisk) AppendAdjacency(dst []graph.AdjEntry, costs []float64, v graph.NodeID) ([]graph.AdjEntry, []float64, error) {
	n := len(dst)
	dst, costs, err := d.Network.AppendAdjacency(dst, costs, v)
	if len(dst) > n {
		dst[n].Neighbor = graph.NodeID(d.NumNodes())
	}
	return dst, costs, err
}

// A record naming an id outside the database's id space fails its query
// with an error — it used to index past the dense state arrays and surface
// as a recovered panic.
func TestExecutorOutOfRangeRecordIsAnError(t *testing.T) {
	inst := testInstance(t)
	exec := New(damagedDisk{sources(t, inst)["disk"].(*storage.Network)}, Config{})
	for _, req := range mixedRequests(inst, 4) {
		resp := exec.Do(context.Background(), req)
		if resp.Err == nil || IsPanic(resp.Err) || !strings.Contains(resp.Err.Error(), "out of range") {
			t.Errorf("%v: err = %v, want an out-of-range error that is not a panic", req.Kind, resp.Err)
		}
	}
	if s := exec.Stats(); s.Panics != 0 || s.Failed != 4 {
		t.Errorf("stats = %+v, want 4 failed, 0 panics", s)
	}
}

// An unknown kind is an error, not a panic.
func TestExecutorUnknownKind(t *testing.T) {
	inst := testInstance(t)
	exec := New(expand.NewMemorySource(inst.Graph), Config{})
	resp := exec.Do(context.Background(), Request{Kind: Kind(42), Loc: inst.Queries[0]})
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), "unknown query kind") {
		t.Fatalf("err = %v, want unknown-kind error", resp.Err)
	}
	if fmt.Sprint(Kind(42)) != "Kind(42)" || Skyline.String() != "skyline" {
		t.Fatalf("Kind.String misbehaves: %v %v", Kind(42), Skyline)
	}
}
