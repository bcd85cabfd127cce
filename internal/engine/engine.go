// Package engine executes preference queries concurrently against one
// shared network source. An Executor bounds parallelism with a fixed worker
// pool, gives every query its own context (cancellation and timeouts are
// polled mid-query through core.Options.Interrupt), isolates panics to the
// query that raised them, and accumulates latency statistics — the building
// block behind the facade's Batch* methods and the mcnserve HTTP server.
//
// Safety: all network sources are safe for concurrent readers — the
// disk-resident storage.Network guards page access with per-shard buffer
// pool locks, expand.MemorySource touches only immutable graph data (its
// access counters are atomic), and flat.Source is immutable CSR arrays. All
// per-query state (expansions, CEA record memos, trackers) is created per
// call or acquired by the core algorithms from expand's scratch pool for the
// duration of the query, so concurrent queries share nothing mutable.
package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/rescache"
	"mcn/internal/storage"
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
// meaningful; Latency covers query execution, not time spent queued.
type Response struct {
	// Index is the request's position in the Execute batch (0 for Do).
	Index   int
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
	// bounds, when non-nil, is the lower-bound pruning index attached to
	// every query whose options carry none; see SetBounds.
	bounds expand.LowerBounder

	// Admission state. admitted counts queries past the shed check that have
	// not yet released their worker slot (queued + running); inflight counts
	// those actually holding a slot. The admit/StartDrain handshake relies on
	// ordering: admit increments admitted *before* loading draining, and
	// StartDrain stores draining *before* DrainWait loads admitted, so either
	// the admitter observes the drain or the drainer observes the admission.
	admitted atomic.Int64
	inflight atomic.Int64
	shed     atomic.Int64
	drainRej atomic.Int64
	draining atomic.Bool

	mu    sync.Mutex
	stats Stats
}

// New returns an executor over src.
func New(src expand.Source, cfg Config) *Executor {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{src: src, cfg: cfg, sem: make(chan struct{}, cfg.Workers)}
}

// Workers returns the configured parallelism bound.
func (e *Executor) Workers() int { return e.cfg.Workers }

// SetBounds attaches the lower-bound pruning index: every query whose
// options carry no Bounds of their own runs with it (requests setting
// NoPrune still opt out). Attach before queries start, like SetCache; it
// must not race in-flight queries. The bounds must be admissible for the
// executor's source — built from the same graph and facility set.
func (e *Executor) SetBounds(lb expand.LowerBounder) { e.bounds = lb }

// admit performs admission control and acquires a worker slot: it rejects
// with ErrDraining once StartDrain has been called, with ErrOverloaded when
// the pending queue is full (Config.QueueDepth > 0), and with a wrapped ctx
// error if ctx dies while queued. On nil return the caller holds a slot and
// must call release.
func (e *Executor) admit(ctx context.Context) error {
	a := e.admitted.Add(1)
	if e.draining.Load() {
		e.admitted.Add(-1)
		e.drainRej.Add(1)
		return ErrDraining
	}
	if e.cfg.QueueDepth > 0 && a > int64(e.cfg.Workers+e.cfg.QueueDepth) {
		e.admitted.Add(-1)
		e.shed.Add(1)
		return ErrOverloaded
	}
	select {
	case e.sem <- struct{}{}:
		e.inflight.Add(1)
		return nil
	case <-ctx.Done():
		e.admitted.Add(-1)
		return fmt.Errorf("engine: queued query aborted: %w", ctx.Err())
	}
}

// release returns the worker slot taken by a successful admit.
func (e *Executor) release() {
	e.inflight.Add(-1)
	<-e.sem
	e.admitted.Add(-1)
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
func (e *Executor) StartDrain() { e.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (e *Executor) Draining() bool { return e.draining.Load() }

// DrainWait blocks until every admitted query has released its slot or ctx
// is done, whichever comes first; it returns ctx's error in the latter case
// (queries still running keep running — the caller decides how hard to
// stop). Call StartDrain first, or new admissions can starve the wait.
func (e *Executor) DrainWait(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if e.admitted.Load() == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// srcFor returns the source to run a query against under ctx: disk-backed
// sources get a view whose page reads are bound to ctx (retry backoff and
// coalesced waits abort when the query is cancelled); other sources are
// returned unchanged, since their reads never block on a device.
func (e *Executor) srcFor(ctx context.Context) expand.Source {
	if n, ok := e.src.(*storage.Network); ok {
		return n.WithReadContext(ctx)
	}
	return e.src
}

// Stats returns a snapshot of the lifetime counters.
func (e *Executor) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Do runs one request, waiting for a worker slot first (the executor's
// parallelism bound applies across Do and Execute callers combined). A
// context cancelled while queued returns immediately without running the
// query; an executor that is draining or over its queue bound rejects with
// ErrDraining/ErrOverloaded without running it.
func (e *Executor) Do(ctx context.Context, req Request) Response {
	if err := e.admit(ctx); err != nil {
		resp := Response{Err: err}
		e.record(resp)
		return resp
	}
	defer e.release()
	return e.run(ctx, req, 0)
}

// Execute runs a batch through the worker pool and returns responses
// positionally aligned with reqs. Each job acquires a slot from the same
// semaphore Do uses, so the executor's parallelism bound holds across
// overlapping Execute and Do callers combined. Cancelling ctx aborts
// in-flight queries at their next interrupt poll and fails the rest without
// running them; Execute always returns len(reqs) responses.
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
				if err := e.admit(ctx); err != nil {
					out[i] = Response{Index: i, Err: err}
					e.record(out[i])
					continue
				}
				out[i] = e.run(ctx, reqs[i], i)
				e.release()
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

// prepare applies the request's timeout to ctx and the executor's pruning
// index to its options. It does NOT bind ctx into the interrupt hook — run
// does that itself and the streaming path leaves it to core.SkylineSeq, so
// every interrupt poll carries exactly one ctx check. Callers must run the
// returned cancel when the query finishes.
func (e *Executor) prepare(ctx context.Context, req Request) (context.Context, core.Options, context.CancelFunc) {
	timeout := req.Timeout
	if timeout == 0 {
		timeout = e.cfg.Timeout
	}
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	opts := req.Opts
	if opts.Bounds == nil {
		opts.Bounds = e.bounds
	}
	return ctx, opts, cancel
}

// run executes one request on the calling goroutine with panic isolation.
func (e *Executor) run(ctx context.Context, req Request, idx int) (resp Response) {
	resp.Index = idx
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			resp.Result = nil
			resp.Err = panicError{fmt.Errorf("engine: %v query panicked: %v", req.Kind, r)}
		}
		resp.Latency = time.Since(start)
		e.record(resp)
	}()

	ctx, opts, cancel := e.prepare(ctx, req)
	defer cancel()
	opts = opts.BindContext(ctx)
	if err := ctx.Err(); err != nil {
		resp.Err = err
		return
	}
	src := e.srcFor(ctx)

	if e.cache != nil && cacheable(req, opts) {
		if key, scale, ok := cacheKey(req, opts); ok {
			val, hit, err := e.cache.Do(key, func() (rescache.Value, []rescache.Tag, error) {
				res, err := e.execute(src, req, opts)
				if err != nil {
					return rescache.Value{}, nil, err
				}
				return rescache.Value{Result: res, Scale: scale}, resultTags(e.src, req.Loc, res), nil
			})
			if err != nil {
				resp.Err = err
				return
			}
			resp.Result = val.ResultAt(scale)
			resp.Cached = hit
			return
		}
	}
	resp.Result, resp.Err = e.execute(src, req, opts)
	return
}

// execute dispatches one prepared request to the core algorithms against src
// (the executor's source, possibly wrapped per query by srcFor).
func (e *Executor) execute(src expand.Source, req Request, opts core.Options) (*core.Result, error) {
	switch req.Kind {
	case Skyline:
		return core.Skyline(src, req.Loc, opts)
	case TopK:
		return core.TopK(src, req.Loc, req.Agg, req.K, opts)
	case Nearest:
		return core.Nearest(src, req.Loc, req.CostIdx, req.K, opts)
	case Within:
		return core.Within(src, req.Loc, req.Budget, opts)
	case MultiSourceSkyline:
		return core.MultiSourceSkyline(src, req.CostIdx, req.Locs, opts)
	case MultiSourceTopK:
		return core.MultiSourceTopK(src, req.CostIdx, req.Locs, req.Agg, req.K, opts)
	default:
		return nil, fmt.Errorf("engine: unknown query kind %d", int(req.Kind))
	}
}

// StreamSkyline runs a progressive skyline query on the calling goroutine
// under the executor's parallelism bound (the same semaphore Do and Execute
// use), delivering each confirmed facility to emit as soon as the driver
// proves it undominated. emit returning false stops the query early — the
// backing for the server's NDJSON streaming endpoint. The response carries
// no Result: facilities were already delivered. Per-request timeouts, panic
// isolation and statistics match Do.
func (e *Executor) StreamSkyline(ctx context.Context, req Request, emit func(core.Facility) bool) Response {
	return e.stream(ctx, req, "skyline", emit, func(ctx context.Context, opts core.Options) iter.Seq2[core.Facility, error] {
		return core.SkylineSeq(ctx, e.srcFor(ctx), req.Loc, opts)
	})
}

// StreamTopK runs an incremental top-k query on the calling goroutine under
// the executor's parallelism bound, delivering facilities to emit in
// ascending score order as the iterator produces them. The query stops after
// req.K deliveries when req.K > 0 (zero streams until the facility set is
// exhausted), or earlier when emit returns false. The response carries no
// Result: facilities were already delivered. Per-request timeouts, panic
// isolation and statistics match StreamSkyline.
func (e *Executor) StreamTopK(ctx context.Context, req Request, emit func(core.Facility) bool) Response {
	n := 0
	upToK := func(f core.Facility) bool {
		n++
		return emit(f) && (req.K <= 0 || n < req.K)
	}
	return e.stream(ctx, req, "top-k", upToK, func(ctx context.Context, opts core.Options) iter.Seq2[core.Facility, error] {
		return core.TopKSeq(ctx, e.srcFor(ctx), req.Loc, req.Agg, opts)
	})
}

// stream is the shared body of the streaming entry points: admit → recover
// and record → prepare → ctx check → range over seq, until it ends, fails or
// emit returns false. name labels the panic message.
func (e *Executor) stream(ctx context.Context, req Request, name string, emit func(core.Facility) bool, seq func(context.Context, core.Options) iter.Seq2[core.Facility, error]) (resp Response) {
	if err := e.admit(ctx); err != nil {
		resp = Response{Err: err}
		e.record(resp)
		return resp
	}
	defer e.release()

	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			resp.Result = nil
			resp.Err = panicError{fmt.Errorf("engine: streaming %s panicked: %v", name, r)}
		}
		resp.Latency = time.Since(start)
		e.record(resp)
	}()

	ctx, opts, cancel := e.prepare(ctx, req)
	defer cancel()
	if err := ctx.Err(); err != nil {
		resp.Err = err
		return
	}
	for f, err := range seq(ctx, opts) {
		if err != nil {
			resp.Err = err
			return
		}
		if !emit(f) {
			return
		}
	}
	return
}

// panicError marks errors produced by the recover path so record can count
// them without re-parsing messages.
type panicError struct{ error }

func (p panicError) Unwrap() error { return p.error }

// IsPanic reports whether err came from the executor's panic recovery —
// always a server-side fault, never a malformed query.
func IsPanic(err error) bool {
	var pe panicError
	return errors.As(err, &pe)
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
