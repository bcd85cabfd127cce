// Package mcn is a library for preference queries in multi-cost
// transportation networks, reproducing Mouratidis, Lin & Yiu, "Preference
// Queries in Large Multi-Cost Transportation Networks", ICDE 2010.
//
// A multi-cost network (MCN) is a road network whose edges carry a vector of
// d non-negative costs (distance, driving time, walking time, toll, …), with
// facilities (points of interest) lying on its edges. Given a query location
// q on the network, the library answers:
//
//   - Skyline(ctx, q): the facilities not dominated with respect to their d
//     per-cost-type shortest-path costs from q — progressive, with results
//     streamed as they are confirmed;
//   - TopK(ctx, q, f, k): the k facilities minimising an increasingly
//     monotone aggregate f over those costs;
//   - TopKIterator(ctx, q, f): the incremental variant that yields the
//     next-best facility on demand, without fixing k in advance.
//
// The API is context-first (v2): every query entry point takes a leading
// context.Context, and cancelling it — or passing one with a deadline —
// aborts the query at its next interrupt poll, uniformly across single
// queries, batches, iterators and streams. The algorithms' progressive
// nature is surfaced directly as Go range-over-func iterators: SkylineSeq
// streams skyline members the moment they are confirmed, TopKSeq yields
// next-best facilities on demand, and breaking out of either loop stops the
// underlying search. Handles that outlive a call (TopKIterator, Maintainer)
// borrow pooled expansion state and must be Closed.
//
// Queries run over in-memory graphs or over the paper's disk-resident
// storage scheme (adjacency/facility files indexed by paged B+-trees behind
// a sharded clock-sweep buffer pool), with a choice of two engines: LSA
// (independent per-cost expansions) and CEA (shared record fetches; at most
// one storage access per record per query).
//
// For serving repeat traffic, EnableResultCache attaches a sharded result
// cache with singleflight coalescing and incremental invalidation to the
// executor-based query paths (Batch, NewExecutor); see the method's
// documentation for the cacheability rules and the relaxed-consistency
// contract.
package mcn

import (
	"context"
	"fmt"
	"io"
	"iter"
	"time"

	"mcn/internal/core"
	"mcn/internal/dynamic"
	"mcn/internal/engine"
	"mcn/internal/expand"
	"mcn/internal/fault"
	"mcn/internal/flat"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/paretopath"
	"mcn/internal/rescache"
	"mcn/internal/storage"
	"mcn/internal/timedep"
	"mcn/internal/vec"
)

// Re-exported identifier and data types.
type (
	// NodeID identifies a network node.
	NodeID = graph.NodeID
	// EdgeID identifies a network edge.
	EdgeID = graph.EdgeID
	// FacilityID identifies a facility.
	FacilityID = graph.FacilityID
	// Location is a position on the network: edge plus fraction from its U
	// end-node.
	Location = graph.Location
	// Costs is a d-dimensional cost vector (one value per cost type).
	Costs = vec.Costs
	// Aggregate is an increasingly monotone scoring function for top-k.
	Aggregate = vec.Aggregate
	// Graph is an immutable in-memory multi-cost network.
	Graph = graph.Graph
	// Builder assembles a Graph.
	Builder = graph.Builder
	// Engine selects LSA or CEA processing.
	Engine = core.Engine
	// Facility is one query answer.
	Facility = core.Facility
	// Result is a completed skyline or top-k answer with work statistics.
	Result = core.Result
	// Stats describes the work a query performed.
	Stats = core.Stats
	// TopKIterator yields top-k results incrementally; Close it when done.
	TopKIterator = core.TopKIterator
	// PoolShardStats is one buffer-pool shard's counters (see
	// Network.PoolShardStats).
	PoolShardStats = storage.ShardStats
	// Path is a Pareto-optimal route with its cost vector.
	Path = paretopath.Path
	// Maintainer keeps skyline/top-k state under facility updates.
	Maintainer = dynamic.Maintainer
	// Handle identifies a facility managed by a Maintainer; handles of the
	// network's initial facilities equal their FacilityIDs.
	Handle = dynamic.Handle
	// MaintainedEntry is a facility tracked by a Maintainer.
	MaintainedEntry = dynamic.Entry
	// IOStats counts logical and physical page reads of a database.
	IOStats = storage.Stats
	// IOFailureStats counts a database's I/O failure handling: retries,
	// exhausted transient failures, permanent failures, checksum mismatches
	// (see Network.IOFailureStats).
	IOFailureStats = storage.FailureStats
	// RetryPolicy bounds the buffer pool's retries of transient read
	// failures (see PoolOptions.Retry).
	RetryPolicy = storage.RetryPolicy
	// PoolOptions tunes the disk buffer pool: shard count, replacement
	// policy and miss coalescing (see OpenDatabaseOptions).
	PoolOptions = storage.PoolOptions
	// PoolPolicy selects the buffer pool's replacement algorithm.
	PoolPolicy = storage.Policy
	// ResultCache is a serving-layer cache of completed query results with
	// singleflight miss coalescing and incremental invalidation (see
	// Network.EnableResultCache and ARCHITECTURE.md "Result cache").
	ResultCache = rescache.Cache
	// CacheOptions tunes a ResultCache: entry capacity and shard count.
	CacheOptions = rescache.Options
	// CacheStats is an aggregate snapshot of a ResultCache's counters.
	CacheStats = rescache.Stats
	// CacheShardStats is one ResultCache shard's counters (see
	// Network.ResultCacheShardStats).
	CacheShardStats = rescache.ShardStats
	// TimeNetwork is a network with time-dependent edge costs (piecewise-
	// constant profiles), answering preference queries at single instants
	// and over time periods from a compiled flat overlay (topology once,
	// per-interval cost vectors).
	TimeNetwork = timedep.Network
	// TimeProfile is a piecewise-constant cost modifier for one edge.
	TimeProfile = timedep.Profile
	// IntervalResult is a maximal time interval with a constant preferred
	// set.
	IntervalResult = timedep.IntervalResult
	// Executor runs queries concurrently over one shared network through a
	// bounded worker pool (see Network.NewExecutor).
	Executor = engine.Executor
	// ExecutorConfig tunes an Executor: worker count, default per-query
	// timeout, and pending-queue bound (admission control).
	ExecutorConfig = engine.Config
	// ExecutorStats is a snapshot of an Executor's lifetime counters.
	ExecutorStats = engine.Stats
	// AdmissionStats is a snapshot of an Executor's admission state: queries
	// in flight, queued, shed, and the drain flag.
	AdmissionStats = engine.AdmissionStats
	// BatchRequest describes one query of a concurrent batch.
	BatchRequest = engine.Request
	// BatchResponse is the outcome of one BatchRequest, with its per-query
	// latency.
	BatchResponse = engine.Response
	// QueryKind selects the query a BatchRequest runs.
	QueryKind = engine.Kind
)

// Batch query kinds.
const (
	// SkylineQuery runs Network.Skyline.
	SkylineQuery = engine.Skyline
	// TopKQuery runs Network.TopK.
	TopKQuery = engine.TopK
	// NearestQuery runs Network.Nearest.
	NearestQuery = engine.Nearest
	// WithinQuery runs Network.Within.
	WithinQuery = engine.Within
	// MultiSourceSkylineQuery runs Network.MultiSourceSkyline.
	MultiSourceSkylineQuery = engine.MultiSourceSkyline
	// MultiSourceTopKQuery runs Network.MultiSourceTopK.
	MultiSourceTopKQuery = engine.MultiSourceTopK
)

// Engines.
const (
	// LSA is the Local Search Algorithm: d independent expansions.
	LSA = core.LSA
	// CEA is the Combined Expansion Algorithm: shared record fetches.
	CEA = core.CEA
)

// Buffer pool replacement policies.
const (
	// ClockPolicy approximates LRU with a second-chance sweep (default).
	ClockPolicy = storage.PolicyClock
	// LRUPolicy is exact least-recently-used.
	LRUPolicy = storage.PolicyLRU
)

// ParsePoolPolicy converts "clock" or "lru" to a PoolPolicy.
func ParsePoolPolicy(s string) (PoolPolicy, error) { return storage.ParsePolicy(s) }

// Lifecycle errors of closeable query handles.
var (
	// ErrIteratorClosed is returned by TopKIterator.Next after Close.
	ErrIteratorClosed = core.ErrIteratorClosed
	// ErrMaintainerClosed is returned by Maintainer.Insert after Close.
	ErrMaintainerClosed = dynamic.ErrClosed
	// ErrOverloaded rejects a query at executor admission when the pending
	// queue is full (ExecutorConfig.QueueDepth); back off and retry.
	ErrOverloaded = engine.ErrOverloaded
	// ErrDraining rejects a query at executor admission once a drain has
	// begun (Executor.StartDrain).
	ErrDraining = engine.ErrDraining
)

// NewBuilder starts a network with d cost types; directed networks restrict
// edge traversal from U to V.
func NewBuilder(d int, directed bool) *Builder { return graph.NewBuilder(d, directed) }

// Of builds a cost vector from values.
func Of(vals ...float64) Costs { return vec.Of(vals...) }

// WeightedSum returns the linear aggregate f(p) = Σ coefᵢ·cᵢ(p) used in the
// paper's evaluation. Coefficients must be non-negative.
func WeightedSum(coef ...float64) Aggregate { return vec.NewWeighted(coef...) }

// WeightedMax returns the weighted-Chebyshev aggregate f(p) = maxᵢ coefᵢ·cᵢ(p).
func WeightedMax(coef ...float64) Aggregate { return vec.NewMax(coef...) }

// LocationOnEdge places a query at fraction t along edge e of g.
func LocationOnEdge(g *Graph, e EdgeID, t float64) (Location, error) {
	return graph.LocationAt(g, e, t)
}

// LocationAtNode places a query at node v of g.
func LocationAtNode(g *Graph, v NodeID) (Location, error) {
	return graph.LocationAtNode(g, v)
}

// Option configures a query.
type Option func(*core.Options)

// WithEngine selects LSA (default) or CEA.
func WithEngine(e Engine) Option {
	return func(o *core.Options) { o.Engine = e }
}

// Progressive streams each confirmed skyline facility to cb as soon as it
// is known, before the query completes. It is a thin adapter over the
// streaming surface: the callback rides the same emission hook SkylineSeq
// yields through, so order and timing are identical to ranging the Seq.
// New code should prefer SkylineSeq — it can also stop the query early.
func Progressive(cb func(Facility)) Option {
	return func(o *core.Options) { o.OnResult = cb }
}

// WithoutEnhancements disables the paper's Sec. IV-A optimisations, for
// ablation experiments. Results are unchanged.
func WithoutEnhancements() Option {
	return func(o *core.Options) { o.NoEnhancements = true }
}

func buildOptions(opts []Option) core.Options {
	var o core.Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Network is a queryable multi-cost network: either an in-memory graph or an
// opened disk database. Both kinds answer queries the same way — the
// algorithms acquire one pooled, dense expansion state per query (see
// internal/expand) — so a Network holds no per-query state of its own.
type Network struct {
	src   expand.Source
	g     *graph.Graph
	store *storage.Network
	dev   storage.Device
	// faultDev is set when the network was opened through OpenDatabaseChaos:
	// the fault-injecting wrapper between the pool and the real device, kept
	// so FaultCounters can report what was injected.
	faultDev *fault.Device
	// cache, when enabled, memoizes completed results for every executor
	// this network creates; see EnableResultCache.
	cache *rescache.Cache
	// bounds is the precomputed lower-bound pruning index: built at
	// FromGraph time for in-memory networks, loaded from the bounds table
	// for disk databases. Attached to every query by default; see
	// DisablePruning.
	bounds *index.Bounds
}

// FromGraph wraps an in-memory graph for querying. The graph is compiled
// once into a flat CSR representation (see internal/flat), so queries read
// adjacency and facility records as shared slices with zero per-call
// allocation.
func FromGraph(g *Graph) *Network {
	src := flat.Compile(g)
	return &Network{src: src, g: g, bounds: index.FromGraph(g)}
}

// CreateDatabase writes g to a disk database at path using the paper's
// storage scheme (Fig. 2). The lower-bound pruning index is computed and
// embedded in the database; OpenDatabase picks it up automatically.
func CreateDatabase(g *Graph, path string) error {
	_, err := CreateDatabaseIndexed(g, path)
	return err
}

// CreateDatabaseIndexed is CreateDatabase, additionally reporting the size
// and build time of the pruning index it embedded (mcngen prints these).
func CreateDatabaseIndexed(g *Graph, path string) (IndexStats, error) {
	dev, err := storage.CreateFileDevice(path)
	if err != nil {
		return IndexStats{}, err
	}
	bounds, err := storage.BuildIndexed(g, dev)
	if err != nil {
		dev.Close()
		return IndexStats{}, err
	}
	return IndexStats{BoundsBytes: bounds.Bytes(), BuildTime: bounds.BuildTime()}, dev.Close()
}

// OpenDatabase opens a disk database with a buffer pool sized to bufferFrac
// of its pages (0 disables caching), under the default pool options: a
// sharded clock cache with miss coalescing.
func OpenDatabase(path string, bufferFrac float64) (*Network, error) {
	return OpenDatabaseOptions(path, bufferFrac, PoolOptions{})
}

// OpenDatabaseOptions is OpenDatabase with explicit buffer-pool tuning:
// shard count, replacement policy (clock or exact LRU) and miss coalescing.
// The zero PoolOptions selects the defaults.
func OpenDatabaseOptions(path string, bufferFrac float64, opts PoolOptions) (*Network, error) {
	dev, err := storage.OpenFileDevice(path)
	if err != nil {
		return nil, err
	}
	n, err := OpenDeviceOptions(dev, bufferFrac, opts)
	if err != nil {
		dev.Close()
		return nil, err
	}
	return n, nil
}

// Device is the storage backend abstraction a disk database lives on: page
// reads and writes plus a close. storage provides file devices, in-memory
// devices and latency-simulating wrappers.
type Device = storage.Device

// OpenDeviceOptions opens a database resident on an already-open device —
// the seam for wrapping the storage layer (latency simulation in benchmarks,
// fault injection in chaos drills) before the buffer pool sees it. The
// returned network owns dev and closes it on Close.
func OpenDeviceOptions(dev Device, bufferFrac float64, opts PoolOptions) (*Network, error) {
	store, err := storage.OpenOptions(dev, bufferFrac, opts)
	if err != nil {
		return nil, err
	}
	return &Network{src: store, store: store, dev: dev, bounds: store.Bounds()}, nil
}

// FaultInjection configures the deterministic fault schedule of
// OpenDatabaseChaos: seeded probabilities for transient read errors,
// bit-flip corruption and latency spikes. See internal/fault.
type FaultInjection = fault.Options

// FaultCounters reports the faults a chaos-opened network's device has
// actually injected.
type FaultCounters = fault.Counters

// OpenDatabaseChaos is OpenDatabaseOptions with a deterministic
// fault-injecting device wrapped between the buffer pool and the file — the
// backing for mcnserve's -chaos flag, so game-day drills can exercise the
// retry/checksum path on a live replica and watch injected-fault counters
// in /stats. Injection arms only after the database opens: the header,
// catalog and bounds-table reads are never faulted, queries are.
func OpenDatabaseChaos(path string, bufferFrac float64, opts PoolOptions, inject FaultInjection) (*Network, error) {
	dev, err := storage.OpenFileDevice(path)
	if err != nil {
		return nil, err
	}
	fdev := fault.Wrap(dev, inject)
	n, err := OpenDeviceOptions(fdev, bufferFrac, opts)
	if err != nil {
		dev.Close()
		return nil, err
	}
	fdev.Arm()
	n.faultDev = fdev
	return n, nil
}

// FaultCounters reports the injected-fault counters of a network opened
// with OpenDatabaseChaos; ok is false for networks without fault injection.
func (n *Network) FaultCounters() (c FaultCounters, ok bool) {
	if n.faultDev == nil {
		return FaultCounters{}, false
	}
	return n.faultDev.Counters(), true
}

// Close releases the underlying device of a disk-backed network; it is a
// no-op for in-memory networks.
func (n *Network) Close() error {
	if n.dev != nil {
		return n.dev.Close()
	}
	return nil
}

// D returns the number of cost types.
func (n *Network) D() int { return n.src.D() }

// Directed reports whether the network is directed.
func (n *Network) Directed() bool { return n.src.Directed() }

// Graph returns the underlying in-memory graph, if this network was built
// with FromGraph.
func (n *Network) Graph() (*Graph, bool) { return n.g, n.g != nil }

// NumNodes returns the node count.
func (n *Network) NumNodes() int {
	if n.store != nil {
		return n.store.NumNodes()
	}
	return n.g.NumNodes()
}

// NumEdges returns the edge count.
func (n *Network) NumEdges() int {
	if n.store != nil {
		return n.store.NumEdges()
	}
	return n.g.NumEdges()
}

// NumFacilities returns the facility count.
func (n *Network) NumFacilities() int {
	if n.store != nil {
		return n.store.NumFacilities()
	}
	return n.g.NumFacilities()
}

// defaultOptions materialises opts and attaches the network's pruning
// index, without binding a context — the Seq surfaces use it directly because
// core.SkylineSeq/TopKSeq bind ctx themselves, and a second binding would
// chain two identical ctx checks into every interrupt poll.
func (n *Network) defaultOptions(opts []Option) core.Options {
	o := buildOptions(opts)
	if o.Bounds == nil && n.bounds != nil {
		o.Bounds = n.bounds
	}
	return o
}

// queryOptions is defaultOptions plus ctx cancellation/deadline binding —
// what every non-streaming query method uses.
func (n *Network) queryOptions(ctx context.Context, opts []Option) core.Options {
	return n.defaultOptions(opts).BindContext(ctx)
}

// srcFor returns the source a query under ctx should read from: disk-backed
// networks get a view whose page reads are bound to ctx, so cancellation
// aborts retry backoff sleeps and coalesced waits, not just the next
// interrupt poll. In-memory sources never block on a device and are returned
// unchanged, as is everything when ctx can never be cancelled.
func (n *Network) srcFor(ctx context.Context) expand.Source {
	if n.store != nil && ctx != nil && ctx.Done() != nil {
		return n.store.WithReadContext(ctx)
	}
	return n.src
}

// Skyline computes sky(q) for the query location loc. Cancelling ctx aborts
// the query at its next interrupt poll.
func (n *Network) Skyline(ctx context.Context, loc Location, opts ...Option) (*Result, error) {
	return core.Skyline(n.srcFor(ctx), loc, n.queryOptions(ctx, opts))
}

// SkylineSeq streams sky(q) as a range-over-func iterator: each confirmed
// skyline facility is yielded the moment the search proves it undominated,
// in the same order a Progressive callback would see. Breaking out of the
// loop stops the query early; cancelling ctx (or hitting its deadline)
// yields the context's error once and ends the stream. The query runs
// inside the consumer's loop — no goroutine is spawned — and pooled state
// is returned when the loop exits, however it exits.
//
//	for f, err := range net.SkylineSeq(ctx, loc, mcn.WithEngine(mcn.CEA)) {
//	    if err != nil { ... }
//	    show(f)
//	    if enough() { break } // aborts the remaining search
//	}
func (n *Network) SkylineSeq(ctx context.Context, loc Location, opts ...Option) iter.Seq2[Facility, error] {
	return core.SkylineSeq(ctx, n.srcFor(ctx), loc, n.defaultOptions(opts))
}

// TopK computes the k facilities minimising agg from loc.
func (n *Network) TopK(ctx context.Context, loc Location, agg Aggregate, k int, opts ...Option) (*Result, error) {
	return core.TopK(n.srcFor(ctx), loc, agg, k, n.queryOptions(ctx, opts))
}

// TopKSeq streams facilities in ascending aggregate-score order without
// fixing k in advance: the incremental top-k query as a range-over-func
// iterator. Pull until satisfied and break; ranged to exhaustion it
// enumerates every reachable facility. Pooled state is borrowed for the
// duration of the loop and returned when it exits.
func (n *Network) TopKSeq(ctx context.Context, loc Location, agg Aggregate, opts ...Option) iter.Seq2[Facility, error] {
	return core.TopKSeq(ctx, n.srcFor(ctx), loc, agg, n.defaultOptions(opts))
}

// TopKIterator starts an incremental top-k query from loc; each Next call
// yields the facility with the next-smallest aggregate cost, and cancelling
// ctx makes the next call fail with the context's error. The iterator
// borrows pooled expansion state; Close it when done pulling results (Close
// is idempotent and safe from any goroutine). TopKSeq is the loop-shaped
// form of the same query and closes itself.
func (n *Network) TopKIterator(ctx context.Context, loc Location, agg Aggregate, opts ...Option) (*TopKIterator, error) {
	return core.NewTopKIterator(n.srcFor(ctx), loc, agg, n.queryOptions(ctx, opts))
}

// MultiSourceSkyline answers the multi-source skyline query (Deng et al.,
// ICDE 2007 — the related-work query the paper contrasts with MCN skylines):
// a single cost type, several query locations, and each facility judged by
// its vector of network distances from all of them.
func (n *Network) MultiSourceSkyline(ctx context.Context, costIdx int, locs []Location, opts ...Option) (*Result, error) {
	return core.MultiSourceSkyline(n.srcFor(ctx), costIdx, locs, n.queryOptions(ctx, opts))
}

// MultiSourceTopK ranks facilities by an increasingly monotone aggregate
// over their distances from several query locations (aggregate
// nearest-neighbour search, e.g. min-sum meeting points).
func (n *Network) MultiSourceTopK(ctx context.Context, costIdx int, locs []Location, agg Aggregate, k int, opts ...Option) (*Result, error) {
	return core.MultiSourceTopK(n.srcFor(ctx), costIdx, locs, agg, k, n.queryOptions(ctx, opts))
}

// Nearest returns up to k facilities closest to loc under a single cost
// type, in non-decreasing cost order — the incremental network-expansion
// primitive (NE) the paper's algorithms are built on, exposed for ordinary
// kNN workloads.
func (n *Network) Nearest(ctx context.Context, loc Location, costIdx, k int) ([]Facility, error) {
	res, err := core.Nearest(n.srcFor(ctx), loc, costIdx, k, n.queryOptions(ctx, nil))
	if err != nil {
		return nil, err
	}
	return res.Facilities, nil
}

// Within returns all facilities whose full cost vector fits the budget
// component-wise — a multi-cost range query. The search explores only the
// region each budget component allows.
func (n *Network) Within(ctx context.Context, loc Location, budget Costs, opts ...Option) (*Result, error) {
	return core.Within(n.srcFor(ctx), loc, budget, n.queryOptions(ctx, opts))
}

// SkylineRequest builds a batch request for Network.Skyline at loc.
func SkylineRequest(loc Location, opts ...Option) BatchRequest {
	return BatchRequest{Kind: SkylineQuery, Loc: loc, Opts: buildOptions(opts)}
}

// TopKRequest builds a batch request for Network.TopK at loc.
func TopKRequest(loc Location, agg Aggregate, k int, opts ...Option) BatchRequest {
	return BatchRequest{Kind: TopKQuery, Loc: loc, Agg: agg, K: k, Opts: buildOptions(opts)}
}

// NearestRequest builds a batch request for Network.Nearest at loc.
func NearestRequest(loc Location, costIdx, k int) BatchRequest {
	return BatchRequest{Kind: NearestQuery, Loc: loc, CostIdx: costIdx, K: k}
}

// WithinRequest builds a batch request for Network.Within at loc.
func WithinRequest(loc Location, budget Costs, opts ...Option) BatchRequest {
	return BatchRequest{Kind: WithinQuery, Loc: loc, Budget: budget, Opts: buildOptions(opts)}
}

// MultiSourceSkylineRequest builds a batch request for
// Network.MultiSourceSkyline over locs on cost type costIdx.
func MultiSourceSkylineRequest(costIdx int, locs []Location, opts ...Option) BatchRequest {
	return BatchRequest{Kind: MultiSourceSkylineQuery, CostIdx: costIdx, Locs: locs, Opts: buildOptions(opts)}
}

// MultiSourceTopKRequest builds a batch request for Network.MultiSourceTopK
// over locs on cost type costIdx.
func MultiSourceTopKRequest(costIdx int, locs []Location, agg Aggregate, k int, opts ...Option) BatchRequest {
	return BatchRequest{Kind: MultiSourceTopKQuery, CostIdx: costIdx, Locs: locs, Agg: agg, K: k, Opts: buildOptions(opts)}
}

// IsQueryPanic reports whether a batch-response error came from the
// executor's panic isolation (a fault in query processing, not a bad
// request).
func IsQueryPanic(err error) bool { return engine.IsPanic(err) }

// NewExecutor returns a long-lived concurrent query executor over the
// network: a bounded worker pool with per-query cancellation, timeouts,
// panic isolation and latency statistics. One executor may serve any number
// of goroutines; the mcnserve HTTP server funnels all traffic through one.
func (n *Network) NewExecutor(cfg ExecutorConfig) *Executor {
	ex := engine.New(n.src, cfg)
	if n.cache != nil {
		ex.SetCache(n.cache)
	}
	if n.bounds != nil {
		ex.SetBounds(n.bounds)
	}
	return ex
}

// Batch runs heterogeneous requests concurrently through a worker pool of
// cfg.Workers (GOMAXPROCS if zero) and returns one response per request, in
// request order. Cancelling ctx aborts in-flight queries at their next
// interrupt poll; per-request errors are reported in the responses, never as
// a batch-wide failure.
func (n *Network) Batch(ctx context.Context, reqs []BatchRequest, cfg ExecutorConfig) []BatchResponse {
	return n.NewExecutor(cfg).Execute(ctx, reqs)
}

// batchResults runs same-kind requests and unwraps the responses into
// results aligned with the requests, failing on the first per-query error.
func (n *Network) batchResults(ctx context.Context, reqs []BatchRequest, workers int) ([]*Result, error) {
	out := make([]*Result, len(reqs))
	for _, resp := range n.Batch(ctx, reqs, ExecutorConfig{Workers: workers}) {
		if resp.Err != nil {
			return nil, fmt.Errorf("mcn: batch query %d: %w", resp.Index, resp.Err)
		}
		out[resp.Index] = resp.Result
	}
	return out, nil
}

// BatchSkyline answers a skyline query at every location concurrently, with
// at most workers (GOMAXPROCS if zero) queries in flight.
func (n *Network) BatchSkyline(ctx context.Context, locs []Location, workers int, opts ...Option) ([]*Result, error) {
	reqs := make([]BatchRequest, len(locs))
	for i, loc := range locs {
		reqs[i] = SkylineRequest(loc, opts...)
	}
	return n.batchResults(ctx, reqs, workers)
}

// BatchTopK answers a top-k query at every location concurrently.
func (n *Network) BatchTopK(ctx context.Context, locs []Location, agg Aggregate, k, workers int, opts ...Option) ([]*Result, error) {
	reqs := make([]BatchRequest, len(locs))
	for i, loc := range locs {
		reqs[i] = TopKRequest(loc, agg, k, opts...)
	}
	return n.batchResults(ctx, reqs, workers)
}

// BatchNearest answers a k-nearest query at every location concurrently.
func (n *Network) BatchNearest(ctx context.Context, locs []Location, costIdx, k, workers int) ([]*Result, error) {
	reqs := make([]BatchRequest, len(locs))
	for i, loc := range locs {
		reqs[i] = NearestRequest(loc, costIdx, k)
	}
	return n.batchResults(ctx, reqs, workers)
}

// BatchWithin answers a budget range query at every location concurrently.
func (n *Network) BatchWithin(ctx context.Context, locs []Location, budget Costs, workers int, opts ...Option) ([]*Result, error) {
	reqs := make([]BatchRequest, len(locs))
	for i, loc := range locs {
		reqs[i] = WithinRequest(loc, budget, opts...)
	}
	return n.batchResults(ctx, reqs, workers)
}

// BaselineSkyline runs the paper's strawman skyline: d complete expansions
// followed by a conventional skyline operator.
func (n *Network) BaselineSkyline(ctx context.Context, loc Location) (*Result, error) {
	return core.NaiveSkyline(n.srcFor(ctx), loc, n.queryOptions(ctx, nil))
}

// BaselineTopK runs the strawman top-k over fully materialised vectors.
func (n *Network) BaselineTopK(ctx context.Context, loc Location, agg Aggregate, k int) (*Result, error) {
	return core.NaiveTopK(n.srcFor(ctx), loc, agg, k, n.queryOptions(ctx, nil))
}

// ctxInterrupt adapts ctx to the poll-style interrupt hook non-core
// searches (Pareto paths) take; nil when ctx can never be cancelled.
func ctxInterrupt(ctx context.Context) func() error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx.Err
}

// ParetoPaths returns the multi-criteria Pareto path set between two nodes
// (the MCPP problem of the paper's Sec. II-D). maxLabels caps the search (0
// = unlimited); cancelling ctx aborts it at the next label pop. Requires an
// in-memory network.
func (n *Network) ParetoPaths(ctx context.Context, from, to NodeID, maxLabels int) ([]Path, error) {
	if n.g == nil {
		return nil, fmt.Errorf("mcn: Pareto paths require an in-memory network (FromGraph)")
	}
	return paretopath.Paths(n.g, from, to, paretopath.Options{MaxLabels: maxLabels, Interrupt: ctxInterrupt(ctx)})
}

// ParetoPathsTo returns the Pareto path set from a node to an arbitrary
// on-edge location. Requires an in-memory network.
func (n *Network) ParetoPathsTo(ctx context.Context, from NodeID, to Location, maxLabels int) ([]Path, error) {
	if n.g == nil {
		return nil, fmt.Errorf("mcn: Pareto paths require an in-memory network (FromGraph)")
	}
	return paretopath.PathsToLocation(n.g, from, to, paretopath.Options{MaxLabels: maxLabels, Interrupt: ctxInterrupt(ctx)})
}

// ParetoPathsApprox is ParetoPaths with ε-dominance pruning: alternatives
// within a (1+epsilon) factor on every cost are collapsed, taming the
// exponential frontiers exact multi-criteria search can produce on large
// anti-correlated networks.
func (n *Network) ParetoPathsApprox(ctx context.Context, from, to NodeID, maxLabels int, epsilon float64) ([]Path, error) {
	if n.g == nil {
		return nil, fmt.Errorf("mcn: Pareto paths require an in-memory network (FromGraph)")
	}
	return paretopath.Paths(n.g, from, to, paretopath.Options{MaxLabels: maxLabels, Epsilon: epsilon, Interrupt: ctxInterrupt(ctx)})
}

// Maintain materialises dynamic skyline/top-k maintenance state for loc:
// facilities can then be inserted and removed with cheap local probes (the
// paper's future-work extension). Cancelling ctx aborts the initial
// materialisation. The maintainer holds pooled expansion scratch for its
// insertion probes; Close it when done (idempotent, any goroutine).
func (n *Network) Maintain(ctx context.Context, loc Location) (*Maintainer, error) {
	o := n.queryOptions(ctx, nil)
	// The pruning index is built for the network's static facility set; a
	// maintainer exists to change that set, and an insert can shrink true
	// nearest-facility distances below the precomputed bounds. Detach them.
	o.Bounds = nil
	m, err := dynamic.New(n.srcFor(ctx), loc, o)
	if err != nil {
		return nil, err
	}
	if n.cache != nil {
		// Every facility mutation kills exactly the cached entries that
		// depend on the touched edge — the incremental half of the cache's
		// relaxed-consistency contract (see EnableResultCache).
		cache := n.cache
		m.SetOnUpdate(func(e EdgeID) { cache.Invalidate(rescache.EdgeTag(e)) })
	}
	return m, nil
}

// NewResultCache builds a standalone result cache for callers that wire it
// themselves — e.g. a TimeNetwork with no associated Network. Most code
// wants Network.EnableResultCache instead.
func NewResultCache(opts CacheOptions) *ResultCache { return rescache.New(opts) }

// EnableResultCache attaches a serving-layer result cache to the network
// and returns it. Every executor the network creates afterwards — via
// NewExecutor, Batch and the Batch* helpers — memoizes completed results
// under canonical query keys with singleflight miss coalescing, and
// Maintain wires facility updates to incremental invalidation. Enable the
// cache before creating executors or maintainers; calling it again
// replaces the cache for future executors only. The returned cache can be
// shared with a TimeNetwork via TimeNetwork.EnableResultCache so instant
// time-dependent queries use the same capacity and counters.
//
// Consistency is deliberately relaxed in one direction: a facility update
// invalidates exactly the entries whose query location or result
// facilities lie on the touched edge, so an entry whose result *should*
// gain a newly inserted facility on some unrelated edge may be served
// unchanged until it is evicted or flushed. FlushResultCache is the strict
// fallback. The direct query methods (Skyline, TopK, ...) never consult
// the cache. See ARCHITECTURE.md "Result cache" for the full contract.
func (n *Network) EnableResultCache(opts CacheOptions) *ResultCache {
	n.cache = rescache.New(opts)
	return n.cache
}

// ResultCache returns the attached result cache, or nil when caching is
// disabled.
func (n *Network) ResultCache() *ResultCache { return n.cache }

// ResultCacheStats returns the result cache's aggregate counters; ok is
// false when no cache is enabled. Lock-free, like IOStats.
func (n *Network) ResultCacheStats() (CacheStats, bool) {
	if n.cache == nil {
		return CacheStats{}, false
	}
	return n.cache.Stats(), true
}

// ResultCacheShardStats returns per-shard result-cache counters for
// diagnosing shard skew, mirroring PoolShardStats; ok is false when no
// cache is enabled.
func (n *Network) ResultCacheShardStats() ([]CacheShardStats, bool) {
	if n.cache == nil {
		return nil, false
	}
	return n.cache.ShardStats(), true
}

// FlushResultCache invalidates every cached result at once — the strict
// fallback when the relaxed invalidation contract is not enough. A no-op
// when no cache is enabled.
func (n *Network) FlushResultCache() {
	if n.cache != nil {
		n.cache.Flush()
	}
}

// DisablePruning detaches the lower-bound pruning index from the network:
// every future query (including executors created afterwards) runs unpruned,
// as if the index had never been built. Call it before queries start; it
// must not race in-flight queries.
func (n *Network) DisablePruning() { n.bounds = nil }

// IndexStats describes the pruning index attached to a network.
type IndexStats struct {
	// BoundsBytes is the in-memory (and on-disk) size of the lower-bound
	// vectors: d × numNodes × 8 bytes.
	BoundsBytes int
	// BuildTime is how long the reverse multi-source Dijkstra passes took.
	// Zero for indexes loaded from a database rather than built.
	BuildTime time.Duration
}

// IndexStats returns the pruning index's size and build time; ok is false
// when the network has none (DisablePruning was called, or Maintain
// detached a stale one).
func (n *Network) IndexStats() (IndexStats, bool) {
	if n.bounds == nil {
		return IndexStats{}, false
	}
	return IndexStats{BoundsBytes: n.bounds.Bytes(), BuildTime: n.bounds.BuildTime()}, true
}

// IOStats returns the buffer-pool counters of a disk-backed network; ok is
// false for in-memory networks.
func (n *Network) IOStats() (IOStats, bool) {
	if n.store == nil {
		return IOStats{}, false
	}
	return n.store.Stats(), true
}

// IOFailureStats returns the I/O failure counters of a disk-backed network
// — retries, exhausted transient failures, permanent failures, checksum
// mismatches; ok is false for in-memory networks. Lock-free, like IOStats.
func (n *Network) IOFailureStats() (IOFailureStats, bool) {
	if n.store == nil {
		return IOFailureStats{}, false
	}
	return n.store.FailureStats(), true
}

// PoolShardStats returns per-shard buffer-pool counters (hits, evictions,
// coalesced reads) of a disk-backed network, for diagnosing shard skew; ok
// is false for in-memory networks. Lock-free, like IOStats.
func (n *Network) PoolShardStats() ([]PoolShardStats, bool) {
	if n.store == nil {
		return nil, false
	}
	return n.store.Pool().ShardStats(), true
}

// ResetIOStats zeroes the buffer-pool counters of a disk-backed network.
func (n *Network) ResetIOStats() {
	if n.store != nil {
		n.store.Pool().ResetStats()
	}
}

// TimeDependent wraps an in-memory graph with time-dependent cost support
// (the paper's future-work extension): attach TimeProfiles to edges, then
// query at single instants (SkylineAt, TopKAt, NearestAt, WithinAt) or over
// whole time periods (SkylineOverPeriod, TopKOverPeriod). All entry points
// are ctx-first, like every other query in the v2 API, and take core
// options built from the same Option helpers via QueryOptions.
//
// The first query compiles the network onto the flat overlay fast path:
// topology once into shared CSR arrays, one dense cost vector per
// elementary interval of the time axis (see README "Time-dependent
// architecture"). Resolving an instant is then a binary search plus a
// pointer read, and queries run on pooled dense expansion state at the
// in-memory fast path's allocation level — no per-interval graph rebuild.
//
//	tn := mcn.TimeDependent(g)
//	tn.SetProfile(highway, mcn.TimeProfile{Times: []float64{8, 10},
//	    Mult: []mcn.Costs{mcn.Of(3, 1), mcn.Of(1, 1)}})
//	rush, _ := tn.SkylineAt(ctx, q, 8.5, mcn.QueryOptions())
//	intervals, _ := tn.SkylineOverPeriod(ctx, q, 0, 24, mcn.QueryOptions(mcn.WithEngine(mcn.CEA)))
func TimeDependent(g *Graph) *TimeNetwork { return timedep.New(g) }

// AttachSyntheticProfiles attaches deterministic rush-hour-style synthetic
// profiles to count distinct edges of tn — the same (graph, count, seed)
// always yields the same time-dependent network, so replicated serving
// nodes built from one synthetic graph agree on every period query. Used by
// mcnserve -timedep and the cluster equivalence tests.
func AttachSyntheticProfiles(tn *TimeNetwork, count int, seed int64) error {
	return timedep.AttachSyntheticProfiles(tn, count, seed)
}

// QueryOptions materialises Option values into the option struct period
// queries on a TimeNetwork expect.
func QueryOptions(opts ...Option) core.Options { return buildOptions(opts) }

// SyntheticConfig parameterises Synthetic. Zero values select the paper's
// defaults (Sec. VI): ~175K nodes, 100K facilities in 10 Gaussian clusters,
// d = 4 anti-correlated cost types.
type SyntheticConfig struct {
	Nodes      int
	Facilities int
	Clusters   int
	D          int
	// Dist is "independent", "correlated" or "anti-correlated" (default).
	Dist     string
	Directed bool
	Seed     int64
}

// Synthetic generates a road-like multi-cost network matching the structural
// profile of the paper's San Francisco dataset (see DESIGN.md for the
// substitution rationale).
func Synthetic(cfg SyntheticConfig) (*Graph, error) {
	dist := gen.AntiCorrelated
	if cfg.Dist != "" {
		var err error
		dist, err = gen.ParseDistribution(cfg.Dist)
		if err != nil {
			return nil, err
		}
	}
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes:      cfg.Nodes,
		Facilities: cfg.Facilities,
		Clusters:   cfg.Clusters,
		D:          cfg.D,
		Dist:       dist,
		Directed:   cfg.Directed,
		Seed:       cfg.Seed,
		Queries:    1,
	})
	if err != nil {
		return nil, err
	}
	return inst.Graph, nil
}

// RandomQueries samples count uniformly random query locations on g.
func RandomQueries(g *Graph, count int, seed int64) []Location {
	return gen.QueryLocations(g, count, seed)
}

// WriteText serialises g in the plain-text interchange format (see
// internal/graph/io.go for the grammar), for exporting to other tools.
func WriteText(w io.Writer, g *Graph) error { return graph.WriteText(w, g) }

// ReadText parses a network in the plain-text interchange format, for
// importing user-supplied data.
func ReadText(r io.Reader) (*Graph, error) { return graph.ReadText(r) }
