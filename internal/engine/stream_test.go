package engine

import (
	"context"
	"errors"
	"iter"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// stream runs seq through Run as a streamed query does, handing each
// facility to emit until emit returns false.
func stream(ctx context.Context, exec *Executor, req Request, seq func(context.Context) iter.Seq2[core.Facility, error], emit func(core.Facility) bool) Response {
	return exec.Run(ctx, req, func(ctx context.Context) error {
		for f, err := range seq(ctx) {
			if err != nil {
				return err
			}
			if !emit(f) {
				return nil
			}
		}
		return nil
	})
}

// A streamed skyline run through Run delivers exactly the buffered skyline,
// in confirmation order, and honors an emit that stops early.
func TestStreamSkyline(t *testing.T) {
	inst := testInstance(t)
	src := expand.NewMemorySource(inst.Graph)
	exec := New(src, Config{Workers: 2})
	req := Request{Kind: Skyline, Loc: inst.Queries[0]}
	seq := func(ctx context.Context) iter.Seq2[core.Facility, error] {
		return core.SkylineSeq(ctx, src, req.Loc, core.Options{})
	}

	want := exec.Do(context.Background(), req)
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	var got []core.Facility
	resp := stream(context.Background(), exec, req, seq, func(f core.Facility) bool {
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
	resp = stream(context.Background(), exec, req, seq, func(core.Facility) bool {
		n++
		return false
	})
	if resp.Err != nil || n != 1 {
		t.Errorf("early stop: n = %d, err = %v", n, resp.Err)
	}
}

// A streamed top-k run through Run delivers the k best in ascending score
// order. (Stopping at k is the server's loop, pinned by serve's
// TestStreamTopKStopsAtK.)
func TestStreamTopK(t *testing.T) {
	inst := testInstance(t)
	src := expand.NewMemorySource(inst.Graph)
	exec := New(src, Config{Workers: 2})
	req := Request{Kind: TopK, Loc: inst.Queries[1], Agg: vec.NewWeighted(1, 1, 1), K: 3}

	want := exec.Do(context.Background(), req)
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	var got []core.Facility
	resp := stream(context.Background(), exec, req,
		func(ctx context.Context) iter.Seq2[core.Facility, error] {
			return core.TopKSeq(ctx, src, req.Loc, req.Agg, core.Options{})
		},
		func(f core.Facility) bool {
			got = append(got, f)
			return len(got) < req.K
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

// probeSource counts the calls of D, which every query body makes before it
// polls its context or reads a record, and panics in them while armed.
type probeSource struct {
	expand.Source
	calls atomic.Int64
	armed atomic.Bool
}

func (s *probeSource) D() int {
	s.calls.Add(1)
	if s.armed.Load() {
		panic("probe: armed source read")
	}
	return s.Source.D()
}

// entryPoint is one way of running a query through an executor over src.
type entryPoint struct {
	name string
	run  func(ctx context.Context, exec *Executor, src expand.Source, loc graph.Location) Response
}

// entryPoints are every way a query enters an executor: Do and Execute, the
// two streams a server runs through Run, and Run with a body of its own, as
// a period sweep over another network is run.
var entryPoints = []entryPoint{
	{"Do", func(ctx context.Context, exec *Executor, _ expand.Source, loc graph.Location) Response {
		return exec.Do(ctx, Request{Kind: Skyline, Loc: loc})
	}},
	{"Execute", func(ctx context.Context, exec *Executor, _ expand.Source, loc graph.Location) Response {
		return exec.Execute(ctx, []Request{{Kind: Skyline, Loc: loc}})[0]
	}},
	{"stream skyline", func(ctx context.Context, exec *Executor, src expand.Source, loc graph.Location) Response {
		return stream(ctx, exec, Request{Kind: Skyline, Loc: loc},
			func(ctx context.Context) iter.Seq2[core.Facility, error] {
				return core.SkylineSeq(ctx, src, loc, core.Options{})
			},
			func(core.Facility) bool { return true })
	}},
	{"stream top-k", func(ctx context.Context, exec *Executor, src expand.Source, loc graph.Location) Response {
		req := Request{Kind: TopK, Loc: loc, Agg: vec.NewWeighted(1, 1, 1), K: 2}
		n := 0
		return stream(ctx, exec, req,
			func(ctx context.Context) iter.Seq2[core.Facility, error] {
				return core.TopKSeq(ctx, src, loc, req.Agg, core.Options{})
			},
			func(core.Facility) bool { n++; return n < req.K })
	}},
	{"Run", func(ctx context.Context, exec *Executor, src expand.Source, loc graph.Location) Response {
		return exec.Run(ctx, Request{Kind: Skyline, Loc: loc}, func(context.Context) error {
			if src.D() == 0 {
				return errors.New("probe: no cost types")
			}
			return nil
		})
	}},
}

// waitAdmission polls until exec reports the wanted occupancy.
func waitAdmission(t *testing.T, exec *Executor, inflight, queued int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := exec.AdmissionStats()
		if s.Inflight == inflight && s.Queued == queued {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never reached inflight=%d queued=%d: %+v", inflight, queued, s)
		}
		time.Sleep(time.Millisecond)
	}
}

// Every entry point runs its body inside the executor's isolation: a body
// that panics fails with an IsPanic error, is counted in Stats.Panics and
// gives its worker slot back (the next Do on the one-worker executor is
// admitted and answers); a context already done fails at admission, with
// its error wrapped, every time, and the body never runs.
func TestStreamTopKPanicIsolation(t *testing.T) {
	inst := testInstance(t)
	loc := inst.Queries[0]
	if IsPanic(errors.New("ordinary")) {
		t.Error("IsPanic misclassified an ordinary error")
	}
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			src := &probeSource{Source: expand.NewMemorySource(inst.Graph)}
			exec := New(src, Config{Workers: 1})

			src.armed.Store(true)
			resp := ep.run(context.Background(), exec, src, loc)
			src.armed.Store(false)
			if !IsPanic(resp.Err) {
				t.Fatalf("panicking body: err = %v, want a panic-classified error", resp.Err)
			}
			if s := exec.Stats(); s.Panics != 1 || s.Failed != 1 {
				t.Errorf("stats after a panic = %+v, want 1 panic, 1 failed", s)
			}
			if r := exec.Do(context.Background(), Request{Kind: Skyline, Loc: loc}); r.Err != nil {
				t.Fatalf("query after panic: %v", r.Err)
			}

			done, cancel := context.WithCancel(context.Background())
			cancel()
			before := src.calls.Load()
			if r := ep.run(done, exec, src, loc); !errors.Is(r.Err, context.Canceled) || !strings.HasPrefix(r.Err.Error(), "engine: queued query aborted: ") {
				t.Errorf("done context: err = %v, want admission's wrapped context.Canceled", r.Err)
			}
			if src.calls.Load() != before {
				t.Error("done context: the body ran")
			}
			if s := exec.Stats(); s.Canceled != 1 || s.Completed != 1 {
				t.Errorf("stats = %+v, want 1 canceled, 1 completed", s)
			}
		})
	}
}

// The admission lifecycle, through every entry point: with the one worker
// held and the one queue slot taken, a query is shed with ErrOverloaded;
// once StartDrain has been called, it is rejected with ErrDraining; in
// neither case does its body run. Draining and AdmissionStats report the
// drain, and DrainWait returns once idle.
func TestDrainLifecycle(t *testing.T) {
	inst := testInstance(t)
	loc := inst.Queries[0]
	src := &probeSource{Source: expand.NewMemorySource(inst.Graph)}
	exec := New(src, Config{Workers: 1, QueueDepth: 1})

	if exec.Workers() != 1 {
		t.Errorf("Workers = %d, want 1", exec.Workers())
	}
	exec.SetBounds(nil) // no-op attach must not break queries
	if r := exec.Do(context.Background(), Request{Kind: Skyline, Loc: loc}); r.Err != nil {
		t.Fatal(r.Err)
	}

	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // a failed test must not strand its holders
	held := make(chan error, 2)
	for i := 0; i < 2; i++ { // one holds the worker, one the queue slot
		go func() {
			held <- exec.Run(context.Background(), Request{}, func(context.Context) error {
				<-gate
				return nil
			}).Err
		}()
	}
	waitAdmission(t, exec, 1, 1)
	for _, ep := range entryPoints {
		before := src.calls.Load()
		if r := ep.run(context.Background(), exec, src, loc); !errors.Is(r.Err, ErrOverloaded) {
			t.Errorf("%s with a full queue: err = %v, want ErrOverloaded", ep.name, r.Err)
		}
		if src.calls.Load() != before {
			t.Errorf("%s with a full queue: the body ran", ep.name)
		}
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-held; err != nil {
			t.Fatalf("held query %d: %v", i, err)
		}
	}

	if exec.Draining() {
		t.Fatal("draining before StartDrain")
	}
	exec.StartDrain()
	if !exec.Draining() {
		t.Fatal("not draining after StartDrain")
	}
	for _, ep := range entryPoints {
		before := src.calls.Load()
		if r := ep.run(context.Background(), exec, src, loc); !errors.Is(r.Err, ErrDraining) {
			t.Errorf("%s during drain: err = %v, want ErrDraining", ep.name, r.Err)
		}
		if src.calls.Load() != before {
			t.Errorf("%s during drain: the body ran", ep.name)
		}
	}

	n := int64(len(entryPoints))
	s := exec.AdmissionStats()
	if s.Shed != n || s.DrainRejected != n || !s.Draining || s.Inflight != 0 || s.Queued != 0 {
		t.Errorf("admission stats = %+v, want %d shed and %d drain-rejected", s, n, n)
	}
	if st := exec.Stats(); st.Completed != 3 || st.Failed != 2*n {
		t.Errorf("stats = %+v, want 3 completed, %d failed", st, 2*n)
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
