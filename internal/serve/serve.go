// Package serve implements the mcnserve HTTP serving layer: the query
// endpoints — GET routes and POST /v1/query, every one decoded into the same
// wire.Request and answered by one handler (query.go) in JSON, binary frames
// or, for the progressive queries, streamed NDJSON — plus
// health/readiness/stats introspection. Every query, buffered, streamed or
// a period sweep, runs through one shared bounded executor, which admits,
// sheds, times and counts them all alike. Every replica serves
// the whole network, so the cluster gateway (internal/cluster) sends each
// query, of any kind, to one replica. The cmd/mcnserve binary is a thin
// flag-parsing shell around this package; keeping the handlers here lets
// the cluster tests and the differential lattice's wire rows
// (internal/testsupport/lattice) serve real replicas on an in-memory
// network (internal/testsupport/memnet).
package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"mcn"
	"mcn/internal/wire"
)

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrent queries; <= 0 selects GOMAXPROCS.
	Workers int
	// Timeout is the default and upper bound for per-request deadlines.
	Timeout time.Duration
	// QueueDepth bounds queries queued for a worker slot (admission
	// control); zero queues without bound and never sheds.
	QueueDepth int
	// ShedRate is the sustained shed rate (rejections per second, averaged
	// over ShedWindow) above which /readyz reports unready. Zero selects
	// DefaultShedRate; negative makes any shed within the window flip
	// readiness (the pre-rate-threshold behaviour).
	ShedRate float64
	// ShedWindow is the sliding window the shed rate is averaged over.
	// Zero selects DefaultShedWindow; sub-second values round up to 1s.
	ShedWindow time.Duration
	// TimeNet, when set, is the time-dependent view of the same network;
	// it enables the /skyline/period and /topk/period endpoints.
	TimeNet *mcn.TimeNetwork
}

// Defaults for Config's readiness knobs: an instance is unready only while
// it sheds more than DefaultShedRate requests/s averaged over
// DefaultShedWindow. A single shed under a brief burst no longer flips
// /readyz — gateways probing readiness would otherwise flap replicas out of
// rotation and pile their load onto the survivors.
const (
	DefaultShedRate   = 5.0
	DefaultShedWindow = 5 * time.Second
)

// Server exposes preference queries over one shared network as HTTP
// endpoints. Every query — buffered, an NDJSON stream or a period sweep —
// funnels through a single bounded executor, so the worker count caps
// concurrent query work no matter how many HTTP connections are open, and
// the executor's counters are the server's: /healthz queries_total is its
// Completed.
type Server struct {
	net     *mcn.Network
	tnet    *mcn.TimeNetwork
	exec    *mcn.Executor
	timeout time.Duration
	started time.Time

	shedRate float64
	sheds    *shedTracker
	// now is the clock, swappable by tests exercising the shed window.
	now func() time.Time
}

// New returns a server over net configured by cfg.
func New(net *mcn.Network, cfg Config) *Server {
	if cfg.ShedRate == 0 {
		cfg.ShedRate = DefaultShedRate
	} else if cfg.ShedRate < 0 {
		cfg.ShedRate = 0
	}
	if cfg.ShedWindow <= 0 {
		cfg.ShedWindow = DefaultShedWindow
	}
	return &Server{
		net:      net,
		tnet:     cfg.TimeNet,
		exec:     net.NewExecutor(mcn.ExecutorConfig{Workers: cfg.Workers, Timeout: cfg.Timeout, QueueDepth: cfg.QueueDepth}),
		timeout:  cfg.Timeout,
		started:  time.Now(),
		shedRate: cfg.ShedRate,
		sheds:    newShedTracker(cfg.ShedWindow),
		now:      time.Now,
	}
}

// Executor returns the server's query executor, for drain orchestration
// (StartDrain/DrainWait on shutdown).
func (s *Server) Executor() *mcn.Executor { return s.exec }

// Handler routes the server's endpoints. The GET query routes — one per wire
// kind — and POST /v1/query all land on handleQuery; the period routes exist
// only with a time-dependent network attached.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	for _, kind := range wire.Kinds {
		if q := (wire.Request{Kind: kind}); s.tnet != nil || !q.Period() {
			mux.HandleFunc("GET /"+kind, s.handleQuery)
		}
	}
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	return mux
}

// ProfiledHandler is Handler plus net/http/pprof endpoints under
// /debug/pprof/, for profiling query hot paths in-situ (mcnserve -pprof).
// Kept off the default handler: the profiling endpoints expose runtime
// internals and cost CPU while sampling, so they are strictly opt-in.
func (s *Server) ProfiledHandler() http.Handler {
	mux := s.Handler().(*http.ServeMux)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// shedTracker counts admission rejections in per-second buckets over a
// sliding window, so readiness reflects a sustained shed *rate* rather than
// flipping on any single rejection.
type shedTracker struct {
	secs int64 // window length in whole seconds (>= 1)

	mu sync.Mutex
	// buckets[i] counts sheds during unix second stamps[i]; a bucket is
	// lazily reset when its second rolls around again.
	buckets []int64
	stamps  []int64
}

func newShedTracker(window time.Duration) *shedTracker {
	secs := int64(window / time.Second)
	if secs < 1 {
		secs = 1
	}
	return &shedTracker{secs: secs, buckets: make([]int64, secs), stamps: make([]int64, secs)}
}

// note records one shed at time now.
func (t *shedTracker) note(now time.Time) {
	sec := now.Unix()
	i := sec % t.secs
	t.mu.Lock()
	if t.stamps[i] != sec {
		t.stamps[i] = sec
		t.buckets[i] = 0
	}
	t.buckets[i]++
	t.mu.Unlock()
}

// rate returns the average sheds/s over the window ending at now.
func (t *shedTracker) rate(now time.Time) float64 {
	sec := now.Unix()
	var total int64
	t.mu.Lock()
	for i := range t.buckets {
		if age := sec - t.stamps[i]; age >= 0 && age < t.secs {
			total += t.buckets[i]
		}
	}
	t.mu.Unlock()
	return float64(total) / float64(t.secs)
}

// noteShed records an answer of class c toward the shed rate /readyz
// watches when c is an admission rejection.
func (s *Server) noteShed(c wire.Class) {
	if c == wire.ClassShed || c == wire.ClassDraining {
		s.sheds.note(s.now())
	}
}

// classify maps a query error to its failure class (wire.Failures), by
// errors.Is and errors.As alone: a refused request, an admission
// rejection, an ended context, a panic, a storage fault — and anything
// else is unclassified, a fault of the server and never of the request.
func classify(err error) wire.Class {
	switch {
	case errors.Is(err, wire.ErrInvalid):
		return wire.ClassInvalid
	case errors.Is(err, mcn.ErrOverloaded):
		return wire.ClassShed
	case errors.Is(err, mcn.ErrDraining):
		return wire.ClassDraining
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return wire.ClassDeadline
	case mcn.IsQueryPanic(err):
		return wire.ClassPanic
	case mcn.IsStorageFault(err):
		return wire.ClassStorage
	}
	return wire.ClassUnclassified
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"cost_types":    s.net.D(),
		"directed":      s.net.Directed(),
		"nodes":         s.net.NumNodes(),
		"edges":         s.net.NumEdges(),
		"facilities":    s.net.NumFacilities(),
		"workers":       s.exec.Workers(),
		"uptime_sec":    time.Since(s.started).Seconds(),
		"queries_total": s.exec.Stats().Completed,
	})
}

// handleReadyz answers readiness, as distinct from /healthz liveness: a
// draining or shedding instance is still alive (don't restart it) but should
// receive no new traffic. Readiness returns 503 for the whole drain, and
// while the admission-rejection rate over the sliding window exceeds the
// configured threshold — a single shed under a brief burst keeps the
// instance ready, so health probes don't flap it out of rotation.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.exec.Draining() {
		wire.ClassDraining.Write(w, wire.ModeJSON, map[string]any{"status": "draining"})
		return
	}
	if s.sheds.rate(s.now()) > s.shedRate {
		wire.ClassShed.Write(w, wire.ModeJSON, map[string]any{"status": "shedding"})
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	es := s.exec.Stats()
	out := map[string]any{
		"completed":       es.Completed,
		"failed":          es.Failed,
		"canceled":        es.Canceled,
		"panics":          es.Panics,
		"mean_latency_ms": float64(es.MeanLatency().Microseconds()) / 1000,
		"max_latency_ms":  float64(es.MaxLatency.Microseconds()) / 1000,
		// Admission state: inflight/queued occupancy plus shed_requests,
		// drain_rejected and the draining flag.
		"admission": s.exec.AdmissionStats(),
	}
	if is, ok := s.net.IndexStats(); ok {
		// The pruning index within queries prune with, with the lifetime
		// effect it had: node pops discarded before their adjacency was
		// read, against total node expansions performed. An in-memory
		// network has none until its first within query builds it.
		out["index"] = map[string]any{
			"bounds_bytes":    is.BoundsBytes,
			"build_ms":        float64(is.BuildTime.Microseconds()) / 1000,
			"pruned_nodes":    es.PrunedNodes,
			"node_expansions": es.NodeExpansions,
		}
	}
	if fs, ok := s.net.IOFailureStats(); ok {
		// io_fail_permanent, checksum_errors — the disk's failed page reads
		// (zero on a healthy device).
		out["io_failures"] = fs
	}
	if io, ok := s.net.IOStats(); ok {
		out["io"] = map[string]any{
			"logical":  io.Logical,
			"physical": io.Physical,
			"hit_rate": io.HitRate(),
		}
	}
	if shards, ok := s.net.PoolShardStats(); ok {
		// One entry: the pool is one replacement domain.
		out["pool_shards"] = shards
	}
	if c := s.net.ResultCache(); c != nil {
		cs := c.Stats()
		out["cache"] = map[string]any{
			"hits":        cs.Hits,
			"misses":      cs.Misses,
			"coalesced":   cs.Coalesced,
			"invalidated": cs.Invalidated,
			"evicted":     cs.Evicted,
			"hit_rate":    cs.HitRate(),
			"entries":     c.Len(),
		}
	}
	wire.WriteJSON(w, http.StatusOK, out)
}
