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
// must be Closed; an iterator borrows pooled expansion state until then.
//
// Queries run over in-memory graphs or over the paper's disk-resident
// storage scheme (adjacency/facility files indexed by paged B+-trees behind
// a clock-sweep buffer pool whose hits take no lock), with a choice of two
// engines: LSA (independent per-cost expansions) and CEA (shared record
// fetches; at most one storage access per record per query).
//
// For serving repeat traffic, EnableResultCache attaches a CLOCK-evicted
// result cache with singleflight coalescing to the executor-based query
// paths (Batch, NewExecutor); see the method's documentation for the
// cacheability rules and why a cached answer is always exact.
package mcn

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"iter"
	"math/rand/v2"
	"os"
	"time"

	"mcn/internal/core"
	"mcn/internal/dynamic"
	"mcn/internal/engine"
	"mcn/internal/expand"
	"mcn/internal/flat"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/index"
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
	// PoolShardStats is the buffer pool's counters in per-partition form
	// (see Network.PoolShardStats).
	PoolShardStats = storage.ShardStats
	// Maintainer keeps skyline/top-k state under facility updates.
	Maintainer = dynamic.Maintainer
	// Handle identifies a facility managed by a Maintainer; handles of the
	// network's initial facilities equal their FacilityIDs.
	Handle = dynamic.Handle
	// MaintainedEntry is a facility tracked by a Maintainer.
	MaintainedEntry = dynamic.Entry
	// IOStats counts logical and physical page reads of a database.
	IOStats = storage.Stats
	// IOFailureStats counts a database's failed page reads: device errors
	// and checksum mismatches (see Network.IOFailureStats).
	IOFailureStats = storage.FailureStats
	// PoolOptions tunes the disk buffer pool: its replacement policy (see
	// OpenDatabaseOptions). Its zero Policy is the clock pool.
	PoolOptions = storage.PoolOptions
	// ResultCache is a serving-layer cache of completed query results with
	// singleflight miss coalescing and exact hits (see
	// Network.EnableResultCache and ARCHITECTURE.md "Serving-layer result
	// cache").
	ResultCache = rescache.Cache
	// CacheOptions tunes a ResultCache: its entry capacity.
	CacheOptions = rescache.Options
	// CacheStats is a snapshot of a ResultCache's counters.
	CacheStats = rescache.Stats
	// TimeNetwork is a network with time-dependent edge costs (piecewise-
	// constant profiles), answering preference queries at single instants
	// and over time periods from a compiled flat overlay (topology and base
	// costs once, one cost row per profile segment of each profiled edge).
	// Each SetProfile publishes a new immutable version; queries may run
	// concurrently with it.
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

// Engines.
const (
	// LSA is the Local Search Algorithm: d independent expansions.
	LSA = core.LSA
	// CEA is the Combined Expansion Algorithm: shared record fetches.
	CEA = core.CEA
)

// Admission errors of an Executor.
var (
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
	// cache, when enabled, memoizes completed results for every executor
	// this network creates; see EnableResultCache.
	cache *rescache.Cache
	// bounds is the precomputed lower-bound pruning index: built at
	// FromGraph time for in-memory networks, loaded from the bounds table
	// for disk databases. Attached to every query that brings none of its
	// own; only `within` reads it.
	bounds *index.Bounds
}

// FromGraph wraps an in-memory graph for querying. The graph is compiled
// once into a flat CSR representation (see internal/flat), so queries read
// adjacency and facility records as shared slices with zero per-call
// allocation. The pruning index depends on g alone and is computed while
// the graph compiles.
func FromGraph(g *Graph) *Network {
	indexed := make(chan *index.Bounds, 1)
	go func() { indexed <- index.FromGraph(g) }()
	src := flat.Compile(g)
	return &Network{src: src, g: g, bounds: src.Bounds(<-indexed)}
}

// CreateDatabase writes g to a disk database at path using the paper's
// storage scheme (Fig. 2). The lower-bound pruning index is computed and
// embedded in the database; OpenDatabaseOptions picks it up automatically.
func CreateDatabase(g *Graph, path string) error {
	_, err := CreateDatabaseIndexed(g, path)
	return err
}

// CreateDatabaseIndexed is CreateDatabase, additionally reporting the size
// and build time of the pruning index it embedded (mcngen prints these).
//
// The database is built in memory and written in one sequential pass to a
// temporary file beside path, which is renamed over path once complete, so
// a database already at path is replaced whole: a network that has it open
// keeps reading the old file, and a build that fails leaves it untouched.
// The file is created as os.Create would create it, with the permissions
// the umask leaves of 0666.
func CreateDatabaseIndexed(g *Graph, path string) (IndexStats, error) {
	tmp, err := createTemp(path)
	if err != nil {
		return IndexStats{}, fmt.Errorf("mcn: create database: %w", err)
	}
	dev := storage.NewMemDevice()
	bounds, err := storage.BuildIndexed(g, dev)
	if err == nil {
		err = writeImage(tmp, dev)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return IndexStats{}, err
	}
	return IndexStats{BoundsBytes: bounds.Bytes(), BuildTime: bounds.BuildTime()}, nil
}

// createTemp creates a new, empty file beside path to write its database
// to. Unlike os.CreateTemp, which makes the file private to its owner, it
// asks for mode 0666 and lets the umask take its bits away.
func createTemp(path string) (*os.File, error) {
	for try := 0; ; try++ {
		f, err := os.OpenFile(fmt.Sprintf("%s.%d.tmp", path, rand.Uint32()), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) || try == 10000 {
			return f, err
		}
	}
}

// writeImage writes the pages of dev to f in page order, in one buffered
// sequential pass.
func writeImage(f *os.File, dev *storage.MemDevice) error {
	w := bufio.NewWriterSize(f, 1<<20)
	page := make([]byte, storage.PageSize)
	for id := 0; id < dev.NumPages(); id++ {
		if err := dev.ReadPage(storage.PageID(id), page); err != nil {
			return err
		}
		if _, err := w.Write(page); err != nil {
			return fmt.Errorf("mcn: write database: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("mcn: write database: %w", err)
	}
	return nil
}

// OpenDatabaseOptions opens a disk database with a buffer pool sized to
// bufferFrac of its pages (0 disables caching), tuned by opts. The zero
// PoolOptions selects the defaults: a clock cache with lock-free hits, whose
// concurrent misses of one page share one read.
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
// the seam for wrapping the storage layer (latency simulation in benchmarks)
// before the buffer pool sees it. The returned network owns dev and closes
// it on Close.
func OpenDeviceOptions(dev Device, bufferFrac float64, opts PoolOptions) (*Network, error) {
	store, err := storage.OpenOptions(dev, bufferFrac, opts)
	if err != nil {
		return nil, err
	}
	return &Network{src: store, store: store, dev: dev, bounds: store.Bounds()}, nil
}

// Close releases the underlying device of a disk-backed network; it is a
// no-op for in-memory networks. It waits for the page fetches in flight,
// and every later fetch fails, so a query racing Close returns its answer
// or a storage failure wrapping os.ErrClosed.
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

// Skyline computes sky(q) for the query location loc. Cancelling ctx aborts
// the query at its next interrupt poll.
func (n *Network) Skyline(ctx context.Context, loc Location, opts ...Option) (*Result, error) {
	return core.Skyline(n.src, loc, n.queryOptions(ctx, opts))
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
	return core.SkylineSeq(ctx, n.src, loc, n.defaultOptions(opts))
}

// TopK computes the k facilities minimising agg from loc.
func (n *Network) TopK(ctx context.Context, loc Location, agg Aggregate, k int, opts ...Option) (*Result, error) {
	return core.TopK(n.src, loc, agg, k, n.queryOptions(ctx, opts))
}

// TopKSeq streams facilities in ascending aggregate-score order without
// fixing k in advance: the incremental top-k query as a range-over-func
// iterator. Pull until satisfied and break; ranged to exhaustion it
// enumerates every reachable facility. Pooled state is borrowed for the
// duration of the loop and returned when it exits.
func (n *Network) TopKSeq(ctx context.Context, loc Location, agg Aggregate, opts ...Option) iter.Seq2[Facility, error] {
	return core.TopKSeq(ctx, n.src, loc, agg, n.defaultOptions(opts))
}

// TopKIterator starts an incremental top-k query from loc; each Next call
// yields the facility with the next-smallest aggregate cost, and cancelling
// ctx makes the next call fail with the context's error. The iterator
// borrows pooled expansion state; Close it when done pulling results (Close
// is idempotent and safe from any goroutine). TopKSeq is the loop-shaped
// form of the same query and closes itself.
func (n *Network) TopKIterator(ctx context.Context, loc Location, agg Aggregate, opts ...Option) (*TopKIterator, error) {
	return core.NewTopKIterator(n.src, loc, agg, n.queryOptions(ctx, opts))
}

// MultiSourceSkyline answers the multi-source skyline query (Deng et al.,
// ICDE 2007 — the related-work query the paper contrasts with MCN skylines):
// a single cost type, several query locations, and each facility judged by
// its vector of network distances from all of them.
func (n *Network) MultiSourceSkyline(ctx context.Context, costIdx int, locs []Location, opts ...Option) (*Result, error) {
	return core.MultiSourceSkyline(n.src, costIdx, locs, n.queryOptions(ctx, opts))
}

// MultiSourceTopK ranks facilities by an increasingly monotone aggregate
// over their distances from several query locations (aggregate
// nearest-neighbour search, e.g. min-sum meeting points).
func (n *Network) MultiSourceTopK(ctx context.Context, costIdx int, locs []Location, agg Aggregate, k int, opts ...Option) (*Result, error) {
	return core.MultiSourceTopK(n.src, costIdx, locs, agg, k, n.queryOptions(ctx, opts))
}

// Nearest returns up to k facilities closest to loc under a single cost
// type, in non-decreasing cost order — the incremental network-expansion
// primitive (NE) the paper's algorithms are built on, exposed for ordinary
// kNN workloads.
func (n *Network) Nearest(ctx context.Context, loc Location, costIdx, k int) ([]Facility, error) {
	res, err := core.Nearest(n.src, loc, costIdx, k, n.queryOptions(ctx, nil))
	if err != nil {
		return nil, err
	}
	return res.Facilities, nil
}

// Within returns all facilities whose full cost vector fits the budget
// component-wise — a multi-cost range query. The search explores only the
// region each budget component allows.
func (n *Network) Within(ctx context.Context, loc Location, budget Costs, opts ...Option) (*Result, error) {
	return core.Within(n.src, loc, budget, n.queryOptions(ctx, opts))
}

// SkylineRequest builds a batch request for Network.Skyline at loc.
func SkylineRequest(loc Location, opts ...Option) BatchRequest {
	return BatchRequest{Kind: engine.Skyline, Loc: loc, Opts: buildOptions(opts)}
}

// TopKRequest builds a batch request for Network.TopK at loc.
func TopKRequest(loc Location, agg Aggregate, k int, opts ...Option) BatchRequest {
	return BatchRequest{Kind: engine.TopK, Loc: loc, Agg: agg, K: k, Opts: buildOptions(opts)}
}

// NearestRequest builds a batch request for Network.Nearest at loc.
func NearestRequest(loc Location, costIdx, k int) BatchRequest {
	return BatchRequest{Kind: engine.Nearest, Loc: loc, CostIdx: costIdx, K: k}
}

// WithinRequest builds a batch request for Network.Within at loc.
func WithinRequest(loc Location, budget Costs, opts ...Option) BatchRequest {
	return BatchRequest{Kind: engine.Within, Loc: loc, Budget: budget, Opts: buildOptions(opts)}
}

// MultiSourceSkylineRequest builds a batch request for
// Network.MultiSourceSkyline over locs on cost type costIdx.
func MultiSourceSkylineRequest(costIdx int, locs []Location, opts ...Option) BatchRequest {
	return BatchRequest{Kind: engine.MultiSourceSkyline, CostIdx: costIdx, Locs: locs, Opts: buildOptions(opts)}
}

// MultiSourceTopKRequest builds a batch request for Network.MultiSourceTopK
// over locs on cost type costIdx.
func MultiSourceTopKRequest(costIdx int, locs []Location, agg Aggregate, k int, opts ...Option) BatchRequest {
	return BatchRequest{Kind: engine.MultiSourceTopK, CostIdx: costIdx, Locs: locs, Agg: agg, K: k, Opts: buildOptions(opts)}
}

// IsQueryPanic reports whether a batch-response error came from the
// executor's panic isolation, or from a shared computation that panicked
// while the query waited on it (a fault in query processing, not a bad
// request).
func IsQueryPanic(err error) bool { return engine.IsPanic(err) }

// IsStorageFault reports whether a query error is a storage failure of a
// disk network: a page the device could not read, or whose content failed
// its checksum.
func IsStorageFault(err error) bool { return storage.IsFault(err) }

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

// BaselineSkyline runs the paper's strawman skyline: d complete expansions
// followed by a conventional skyline operator.
func (n *Network) BaselineSkyline(ctx context.Context, loc Location) (*Result, error) {
	return core.NaiveSkyline(n.src, loc, n.queryOptions(ctx, nil))
}

// BaselineTopK runs the strawman top-k over fully materialised vectors.
func (n *Network) BaselineTopK(ctx context.Context, loc Location, agg Aggregate, k int) (*Result, error) {
	return core.NaiveTopK(n.src, loc, agg, k, n.queryOptions(ctx, nil))
}

// Maintain materialises dynamic skyline/top-k maintenance state for loc
// (the paper's future-work extension): d expansions that settle every node
// and read no facility record, whose node distances the maintainer keeps,
// then one sweep of the facility records that prices every facility on
// them. Facilities can then be inserted and removed without traversing the
// network. Cancelling ctx aborts the initial materialisation. The
// maintainer holds no pooled state; Close it when done with updates
// (idempotent, any goroutine): Insert then fails with an error,
// and the maintained results stay readable. Inserts and deletes change the
// maintainer's own facility set only: the network, its executors and its
// result cache never see them, so they invalidate no cached answer.
func (n *Network) Maintain(ctx context.Context, loc Location) (*Maintainer, error) {
	return dynamic.New(n.src, loc, n.queryOptions(ctx, nil))
}

// EnableResultCache attaches a serving-layer result cache to the network
// and returns it. Every executor the network creates afterwards — via
// NewExecutor and Batch — memoizes completed results under exact query
// keys (weights as given) with singleflight miss coalescing. Enable the
// cache before creating executors; calling it again replaces the cache for
// future executors only. The returned cache can be shared with a
// TimeNetwork via TimeNetwork.EnableResultCache so instant time-dependent
// queries use the same capacity and counters.
//
// Every cached answer is exact. A Network does not change once built (a
// Maintainer's inserts and deletes stay in the maintainer), so a static
// entry is its query's answer for the network's whole life; a
// time-dependent entry is its elementary interval's answer, and a profile
// edit that changes the interval invalidates it. The direct query methods
// (Skyline, TopK, ...) never consult the cache. See ARCHITECTURE.md
// "Serving-layer result cache" for the full contract.
func (n *Network) EnableResultCache(opts CacheOptions) *ResultCache {
	n.cache = rescache.New(opts)
	return n.cache
}

// ResultCache returns the attached result cache, or nil when caching is
// disabled.
func (n *Network) ResultCache() *ResultCache { return n.cache }

// ResultCacheStats returns the result cache's counters; ok is
// false when no cache is enabled. Lock-free, like IOStats.
func (n *Network) ResultCacheStats() (CacheStats, bool) {
	if n.cache == nil {
		return CacheStats{}, false
	}
	return n.cache.Stats(), true
}

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
// when the network carries no index (FromGraph builds one, and every
// database carries one).
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

// IOFailureStats returns the failed-read counters of a disk-backed network
// — device errors and checksum mismatches; ok is false for in-memory
// networks. Lock-free, like IOStats.
func (n *Network) IOFailureStats() (IOFailureStats, bool) {
	if n.store == nil {
		return IOFailureStats{}, false
	}
	return n.store.FailureStats(), true
}

// PoolShardStats returns the buffer-pool counters (logical and physical
// reads, hits, evictions) of a disk-backed network as one entry — the pool
// is one replacement domain; ok is false for in-memory networks. Lock-free,
// like IOStats.
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
// TimeDependent compiles the topology and base costs once into shared CSR
// arrays, and every SetProfile compiles the next immutable version onto
// them: the edited edge gets one cost row per profile segment, and every
// other edge's rows are shared with the previous version (see ARCHITECTURE
// "Time-dependent architecture"). Queries never compile: resolving an
// instant is a binary search, and queries run on pooled dense expansion
// state at the in-memory fast path's allocation level — no per-interval
// graph rebuild. A period sweep runs an interval's query only when an edge
// its last run read changed cost (a sweep whose options carry an OnResult
// callback runs every interval). Edits may race queries; a query that
// overlaps an edit answers for the version before or after it.
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
// profile of the paper's San Francisco dataset, which is not redistributable
// (the internal/gen package doc gives the profile and why matching it
// preserves the algorithms' behaviour).
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
