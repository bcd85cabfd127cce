// Package engine executes preference queries concurrently against one
// shared network source. An Executor bounds parallelism with a fixed worker
// pool, gives every query its own context (cancellation and timeouts are
// polled mid-query through core.Options.Interrupt), isolates panics to the
// query that raised them, and accumulates latency statistics — the building
// block behind the facade's Batch* methods and the mcnserve HTTP server.
//
// The executor imports no source package. Its caller hands New the
// expand.Source every query reads from, fixed for the executor's life. A
// query's cancellation is seen at its next interrupt poll; a disk store's
// page read in flight is not interrupted, but it is one device read. Sources
// must be safe for concurrent readers, as the product's are. All per-query
// state (expansions, CEA record memos, trackers) is created per call or
// acquired by the core algorithms from expand's scratch pool for the
// duration of the query, so concurrent queries share nothing mutable.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/rescache"
	"mcn/internal/vec"
)

// ErrOverloaded rejects a query at admission because the executor's pending
// queue is full (Config.QueueDepth). The caller should back off and retry;
// the HTTP server maps it to 503 + Retry-After.
var ErrOverloaded = errors.New("engine: overloaded, query shed")

// ErrDraining rejects a query at admission because the executor is shutting
// down (StartDrain). Queries admitted before the drain began still run to
// completion.
var ErrDraining = errors.New("engine: draining, not accepting queries")

// Kind selects the query a Request runs.
type Kind int

// Supported query kinds.
const (
	Skyline Kind = iota
	TopK
	Nearest
	Within
	MultiSourceSkyline
	MultiSourceTopK
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Skyline:
		return "skyline"
	case TopK:
		return "topk"
	case Nearest:
		return "nearest"
	case Within:
		return "within"
	case MultiSourceSkyline:
		return "multisource_skyline"
	case MultiSourceTopK:
		return "multisource_topk"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Request describes one query. Only the fields of the selected Kind are
// consulted: Agg and K for TopK, CostIdx and K for Nearest, Budget for
// Within, Locs and CostIdx (plus Agg and K for the top-k variant) for the
// MultiSource kinds.
type Request struct {
	Kind    Kind
	Loc     graph.Location
	Locs    []graph.Location
	Agg     vec.Aggregate
	K       int
	CostIdx int
	Budget  vec.Costs
	Opts    core.Options
	// Timeout bounds this query alone; zero falls back to the executor's
	// default. The deadline is enforced mid-query, not just at dispatch.
	Timeout time.Duration
}

// Response is the outcome of one Request. Exactly one of Result and Err is
// meaningful, except after Run, whose body delivered its own output and
// leaves Result nil; Latency covers query execution, not time spent queued.
type Response struct {
	Result  *core.Result
	Err     error
	Latency time.Duration
	// Cached reports that Result was served from the executor's result
	// cache without running the query. Cached results are shared: treat
	// them as read-only, and note that Result.Stats describes the query
	// that originally filled the entry, not this request.
	Cached bool
}

// Config tunes an Executor.
type Config struct {
	// Workers bounds concurrent queries; <= 0 selects GOMAXPROCS.
	Workers int
	// Timeout is the default per-query timeout (0 = none).
	Timeout time.Duration
	// QueueDepth bounds queries waiting for a worker slot: at most
	// Workers+QueueDepth queries may be inside the executor (running or
	// queued) before admission rejects with ErrOverloaded. Zero keeps the
	// pre-admission-control behaviour — callers queue without bound.
	QueueDepth int
}

// Stats is a snapshot of an executor's lifetime counters.
type Stats struct {
	Completed int64 // queries that returned a result
	Failed    int64 // queries that returned an error (panics included)
	Canceled  int64 // failed queries whose error was cancellation/timeout
	Panics    int64 // failed queries that panicked
	// TotalLatency sums execution time across all queries; MaxLatency is
	// the slowest single query.
	TotalLatency time.Duration
	MaxLatency   time.Duration
	// NodeExpansions and PrunedNodes accumulate the per-query work counters
	// of completed queries: node-expansion events performed, and node pops
	// discarded by the lower-bound pruning index (SetBounds) before their
	// adjacency was read. Cached responses contribute nothing — no search
	// ran.
	NodeExpansions int64
	PrunedNodes    int64
}

// Queries returns the total number of finished queries.
func (s Stats) Queries() int64 { return s.Completed + s.Failed }

// MeanLatency returns the average per-query execution time.
func (s Stats) MeanLatency() time.Duration {
	n := s.Queries()
	if n == 0 {
		return 0
	}
	return s.TotalLatency / time.Duration(n)
}

// Executor runs queries concurrently over one shared source. It is safe for
// concurrent use; a single Executor is meant to live as long as its network
// (the HTTP server funnels every request through one).
type Executor struct {
	src expand.Source
	cfg Config
	sem chan struct{}
	// cache, when non-nil, memoizes completed results at the serving layer;
	// see SetCache and internal/rescache.
	cache *rescache.Cache
	// bounds, when non-nil, resolves the lower-bound pruning index that
	// every within query whose options carry none runs with; see SetBounds.
	bounds func(interrupt func() error) (expand.LowerBounder, error)

	// Admission state. admitted counts queries past the shed check that have
	// not yet released their worker slot (queued + running); inflight counts
	// those actually holding a slot. The admit/drain handshake relies on
	// ordering: admit increments admitted *before* loading draining, and
	// StartDrain, or a decrement that observes draining, loads admitted only
	// *after* draining is stored, so either the admitter observes the drain
	// or the drainer observes the admission. drained is closed, once, by
	// whichever of them then reads admitted as 0.
	admitted  atomic.Int64
	inflight  atomic.Int64
	shed      atomic.Int64
	drainRej  atomic.Int64
	draining  atomic.Bool
	drained   chan struct{}
	drainOnce sync.Once

	mu    sync.Mutex
	stats Stats
}

// New returns an executor whose queries read from src.
func New(src expand.Source, cfg Config) *Executor {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{src: src, cfg: cfg, sem: make(chan struct{}, cfg.Workers), drained: make(chan struct{})}
}

// Workers returns the configured parallelism bound.
func (e *Executor) Workers() int { return e.cfg.Workers }

// SetBounds attaches the lower-bound pruning index, which only within
// queries read: each within query whose options carry no Bounds of their
// own and whose budget is valid calls bounds once, as it starts to run,
// with the query's interrupt, and runs with what it returns (nil: no
// pruning). An error it returns fails the query. No other query kind, and
// no cache hit, calls it, so bounds may build the index on its first call,
// polling interrupt as it goes (an in-memory network's does); it must be
// safe for concurrent use. Attach before queries start, like SetCache; it
// must not race in-flight queries. The bounds must be admissible for the
// executor's source — built from the same graph and facility set.
func (e *Executor) SetBounds(bounds func(interrupt func() error) (expand.LowerBounder, error)) {
	e.bounds = bounds
}

// admit performs admission control and acquires a worker slot: it rejects
// with ErrDraining once StartDrain has been called, with ErrOverloaded when
// the pending queue is full (Config.QueueDepth > 0), and with a wrapped ctx
// error if ctx is done on arrival or dies while queued. On nil return the
// caller holds a slot and must call release.
func (e *Executor) admit(ctx context.Context) error {
	a := e.admitted.Add(1)
	if e.draining.Load() {
		e.leave()
		e.drainRej.Add(1)
		return ErrDraining
	}
	if e.cfg.QueueDepth > 0 && a > int64(e.cfg.Workers+e.cfg.QueueDepth) {
		e.leave()
		e.shed.Add(1)
		return ErrOverloaded
	}
	// A select picks at random between a free slot and a done ctx, so a
	// ctx done on arrival never reaches it.
	if ctx.Err() == nil {
		select {
		case e.sem <- struct{}{}:
			e.inflight.Add(1)
			return nil
		case <-ctx.Done():
		}
	}
	e.leave()
	return fmt.Errorf("engine: queued query aborted: %w", ctx.Err())
}

// release returns the worker slot taken by a successful admit.
func (e *Executor) release() {
	e.inflight.Add(-1)
	<-e.sem
	e.leave()
}

// leave undoes admit's increment of admitted. The decrement that empties a
// draining executor ends the drain, once admitted still reads 0 after
// draining is seen: a query admitted just before StartDrain may have raised
// it again in between, and its own leave ends the drain instead.
func (e *Executor) leave() {
	if e.admitted.Add(-1) == 0 && e.draining.Load() {
		e.endDrainIfIdle()
	}
}

// endDrainIfIdle closes drained if no query is admitted. Call it only after
// draining is stored or observed.
func (e *Executor) endDrainIfIdle() {
	if e.admitted.Load() == 0 {
		e.drainOnce.Do(func() { close(e.drained) })
	}
}

// AdmissionStats is a lock-free snapshot of the executor's admission state.
type AdmissionStats struct {
	// Inflight counts queries currently holding a worker slot; Queued counts
	// admitted queries still waiting for one.
	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	// Shed counts queries rejected with ErrOverloaded; DrainRejected those
	// rejected with ErrDraining.
	Shed          int64 `json:"shed_requests"`
	DrainRejected int64 `json:"drain_rejected"`
	// Draining reports that StartDrain has been called.
	Draining bool `json:"draining"`
}

// AdmissionStats returns the current admission counters. Lock-free; a
// snapshot under traffic is approximate (Queued is derived and clamped).
func (e *Executor) AdmissionStats() AdmissionStats {
	inflight := e.inflight.Load()
	queued := e.admitted.Load() - inflight
	if queued < 0 {
		queued = 0
	}
	return AdmissionStats{
		Inflight:      inflight,
		Queued:        queued,
		Shed:          e.shed.Load(),
		DrainRejected: e.drainRej.Load(),
		Draining:      e.draining.Load(),
	}
}

// StartDrain flips the executor into drain mode: every subsequent admission
// is rejected with ErrDraining, while queries already admitted (queued or
// running) proceed normally. Idempotent; there is no way back.
func (e *Executor) StartDrain() {
	e.draining.Store(true)
	e.endDrainIfIdle()
}

// Draining reports whether StartDrain has been called.
func (e *Executor) Draining() bool { return e.draining.Load() }

// DrainWait blocks until StartDrain has been called and every admitted
// query has released its slot, or until ctx is done, whichever comes first;
// it returns ctx's error in the latter case (queries still running keep
// running — the caller decides how hard to stop).
func (e *Executor) DrainWait(ctx context.Context) error {
	select {
	case <-e.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats returns a snapshot of the lifetime counters.
func (e *Executor) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Do runs one request, waiting for a worker slot first (the executor's
// parallelism bound applies across Do, Execute and Run callers combined). A
// context cancelled while queued returns immediately without running the
// query; an executor that is draining or over its queue bound rejects with
// ErrDraining/ErrOverloaded without running it.
func (e *Executor) Do(ctx context.Context, req Request) Response {
	return e.envelope(ctx, req, e.query)
}

// Execute runs a batch through the worker pool and returns responses
// positionally aligned with reqs. Each job goes through the same admission
// Do uses, so the executor's parallelism bound holds across overlapping
// Execute and Do callers combined. Cancelling ctx aborts in-flight queries
// at their next interrupt poll and fails the rest without running them;
// Execute always returns len(reqs) responses.
func (e *Executor) Execute(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	workers := e.cfg.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = e.envelope(ctx, reqs[i], e.query)
			}
		}()
	}
	for i := range reqs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// Run runs one query that delivers its own output — a stream that hands
// each facility to its client as the search produces it, or a sweep over a
// network the executor does not hold — under the same admission, timeout,
// panic isolation and statistics as Do. body runs on the calling goroutine
// once a worker slot is held, with ctx bounded by the request's timeout; it
// must poll ctx, and returns the query's error. Of req only Timeout and Kind
// are read; Kind labels a panic, so a body with no Kind of its own (a period
// sweep carries the static kind it sweeps) is reported as a panic of that
// kind. The response carries no Result.
func (e *Executor) Run(ctx context.Context, req Request, body func(context.Context) error) Response {
	return e.envelope(ctx, req, func(ctx context.Context, _ Request) (*core.Result, bool, error) {
		return nil, false, body(ctx)
	})
}

// envelope is the one path every query takes through the executor: admission
// (drain, queue bound, worker slot), the request's timeout, panic isolation,
// then latency and the lifetime counters. body runs only for a live context
// and returns the query's result, whether the cache served it, and its error.
func (e *Executor) envelope(ctx context.Context, req Request, body func(context.Context, Request) (*core.Result, bool, error)) (resp Response) {
	if err := e.admit(ctx); err != nil {
		resp.Err = err
		e.record(resp)
		return resp
	}
	defer e.release()

	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			resp.Result = nil
			resp.Err = panicError{fmt.Errorf("engine: %v query panicked: %v", req.Kind, r)}
		}
		resp.Latency = time.Since(start)
		e.record(resp)
	}()

	timeout := req.Timeout
	if timeout == 0 {
		timeout = e.cfg.Timeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if resp.Err = ctx.Err(); resp.Err == nil {
		resp.Result, resp.Cached, resp.Err = body(ctx, req)
	}
	return resp
}

// query is Do's body: it binds ctx to the request's options and runs it
// against the executor's source, through the result cache (a nil one runs
// it directly). Its entries carry no tags: the source never changes, so no
// Invalidate can make one stale.
func (e *Executor) query(ctx context.Context, req Request) (*core.Result, bool, error) {
	opts := req.Opts.BindContext(ctx)
	spec := rescache.KeySpec{Kind: cacheKind(req.Kind), Interval: -1, Agg: req.Agg, K: req.K, CostIdx: req.CostIdx, Budget: req.Budget}
	return e.cache.Query(ctx, spec, req.Loc, opts,
		func() (*core.Result, error) { return e.execute(req, opts) }, nil)
}

// execute dispatches one prepared request to the core algorithms against the
// executor's source.
func (e *Executor) execute(req Request, opts core.Options) (*core.Result, error) {
	switch src := e.src; req.Kind {
	case Skyline:
		return core.Skyline(src, req.Loc, opts)
	case TopK:
		return core.TopK(src, req.Loc, req.Agg, req.K, opts)
	case Nearest:
		return core.Nearest(src, req.Loc, req.CostIdx, req.K, opts)
	case Within:
		if opts.Bounds == nil && e.bounds != nil {
			if err := core.CheckBudget(req.Budget, src.D()); err != nil {
				return nil, err
			}
			var err error
			if opts.Bounds, err = e.bounds(opts.Interrupt); err != nil {
				return nil, err
			}
		}
		return core.Within(src, req.Loc, req.Budget, opts)
	case MultiSourceSkyline:
		return core.MultiSourceSkyline(src, req.CostIdx, req.Locs, opts)
	case MultiSourceTopK:
		return core.MultiSourceTopK(src, req.CostIdx, req.Locs, req.Agg, req.K, opts)
	default:
		return nil, fmt.Errorf("engine: unknown query kind %d", int(req.Kind))
	}
}

// panicError marks errors produced by the recover path so record can count
// them without re-parsing messages.
type panicError struct{ error }

func (p panicError) Unwrap() error { return p.error }

// IsPanic reports whether err came from the executor's panic recovery, or
// from a result-cache computation that panicked while this query waited on
// it — always a server-side fault, never a malformed query.
func IsPanic(err error) bool {
	var pe panicError
	return errors.As(err, &pe) || errors.Is(err, rescache.ErrComputePanic)
}

func (e *Executor) record(resp Response) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if resp.Err == nil {
		e.stats.Completed++
		if resp.Result != nil && !resp.Cached {
			e.stats.NodeExpansions += int64(resp.Result.Stats.NodeExpansions)
			e.stats.PrunedNodes += int64(resp.Result.Stats.PrunedNodes)
		}
	} else {
		e.stats.Failed++
		if errors.Is(resp.Err, context.Canceled) || errors.Is(resp.Err, context.DeadlineExceeded) {
			e.stats.Canceled++
		}
		var pe panicError
		if errors.As(resp.Err, &pe) {
			e.stats.Panics++
		}
	}
	e.stats.TotalLatency += resp.Latency
	if resp.Latency > e.stats.MaxLatency {
		e.stats.MaxLatency = resp.Latency
	}
}
