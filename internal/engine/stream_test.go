package engine

import (
	"context"
	"errors"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/vec"
)

// StreamSkyline must deliver exactly the buffered skyline, in confirmation
// order, and honor an emit that stops early.
func TestStreamSkyline(t *testing.T) {
	inst := testInstance(t)
	src := expand.NewMemorySource(inst.Graph)
	exec := New(src, Config{Workers: 2})
	q := inst.Queries[0]

	want := exec.Do(context.Background(), Request{Kind: Skyline, Loc: q})
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	var got []core.Facility
	resp := exec.StreamSkyline(context.Background(), Request{Kind: Skyline, Loc: q}, func(f core.Facility) bool {
		got = append(got, f)
		return true
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Result != nil {
		t.Error("streamed response must carry no buffered Result")
	}
	if len(got) != len(want.Result.Facilities) {
		t.Fatalf("streamed %d facilities, buffered %d", len(got), len(want.Result.Facilities))
	}
	for i, f := range want.Result.Facilities {
		if got[i].ID != f.ID {
			t.Errorf("facility %d: streamed %d, buffered %d", i, got[i].ID, f.ID)
		}
	}

	n := 0
	resp = exec.StreamSkyline(context.Background(), Request{Kind: Skyline, Loc: q}, func(core.Facility) bool {
		n++
		return false
	})
	if resp.Err != nil || n != 1 {
		t.Errorf("early stop: n = %d, err = %v", n, resp.Err)
	}
}

// StreamTopK must deliver the k best in ascending score order and stop at K.
func TestStreamTopK(t *testing.T) {
	inst := testInstance(t)
	src := expand.NewMemorySource(inst.Graph)
	exec := New(src, Config{Workers: 2})
	q := inst.Queries[1]
	agg := vec.NewWeighted(1, 1, 1)
	const k = 3

	want := exec.Do(context.Background(), Request{Kind: TopK, Loc: q, Agg: agg, K: k})
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	var got []core.Facility
	resp := exec.StreamTopK(context.Background(), Request{Kind: TopK, Loc: q, Agg: agg, K: k},
		func(f core.Facility) bool {
			got = append(got, f)
			return true
		})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if len(got) != len(want.Result.Facilities) {
		t.Fatalf("streamed %d facilities, buffered %d", len(got), len(want.Result.Facilities))
	}
	for i, f := range want.Result.Facilities {
		if got[i].ID != f.ID || got[i].Score != f.Score {
			t.Errorf("facility %d: streamed (%d, %g), buffered (%d, %g)",
				i, got[i].ID, got[i].Score, f.ID, f.Score)
		}
	}
}

// A panic inside a streaming query is recovered, classified by IsPanic, and
// does not take the worker down.
func TestStreamTopKPanicIsolation(t *testing.T) {
	inst := testInstance(t)
	exec := New(expand.NewMemorySource(inst.Graph), Config{Workers: 1})

	resp := exec.StreamTopK(context.Background(),
		Request{Kind: TopK, Loc: inst.Queries[0], Agg: nil, K: 2}, // nil aggregate panics in core
		func(core.Facility) bool { return true })
	if resp.Err == nil || !IsPanic(resp.Err) {
		t.Fatalf("err = %v, want a panic-classified error", resp.Err)
	}
	if IsPanic(errors.New("ordinary")) {
		t.Error("IsPanic misclassified an ordinary error")
	}

	// The executor still works.
	if r := exec.Do(context.Background(), Request{Kind: Skyline, Loc: inst.Queries[0]}); r.Err != nil {
		t.Errorf("query after panic: %v", r.Err)
	}
}

// The drain lifecycle: StartDrain rejects new admissions (streaming ones
// too), Draining and AdmissionStats report it, DrainWait returns once idle.
func TestDrainLifecycle(t *testing.T) {
	inst := testInstance(t)
	exec := New(expand.NewMemorySource(inst.Graph), Config{Workers: 3, QueueDepth: 4})

	if exec.Workers() != 3 {
		t.Errorf("Workers = %d, want 3", exec.Workers())
	}
	exec.SetBounds(nil) // no-op attach must not break queries
	if r := exec.Do(context.Background(), Request{Kind: Skyline, Loc: inst.Queries[0]}); r.Err != nil {
		t.Fatal(r.Err)
	}
	if exec.Draining() {
		t.Fatal("draining before StartDrain")
	}

	exec.StartDrain()
	if !exec.Draining() {
		t.Fatal("not draining after StartDrain")
	}
	if r := exec.Do(context.Background(), Request{Kind: Skyline, Loc: inst.Queries[0]}); !errors.Is(r.Err, ErrDraining) {
		t.Errorf("Do during drain: err = %v, want ErrDraining", r.Err)
	}
	if r := exec.StreamSkyline(context.Background(), Request{Kind: Skyline, Loc: inst.Queries[0]},
		func(core.Facility) bool { return true }); !errors.Is(r.Err, ErrDraining) {
		t.Errorf("StreamSkyline during drain: err = %v, want ErrDraining", r.Err)
	}

	s := exec.AdmissionStats()
	if s.DrainRejected != 2 || !s.Draining || s.Inflight != 0 || s.Queued != 0 {
		t.Errorf("admission stats = %+v", s)
	}
	if err := exec.DrainWait(context.Background()); err != nil {
		t.Errorf("DrainWait on idle executor: %v", err)
	}

	// DrainWait honors its context when queries are (apparently) stuck.
	exec.admitted.Add(1)
	defer exec.admitted.Add(-1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := exec.DrainWait(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("DrainWait with dead ctx: %v", err)
	}
}
