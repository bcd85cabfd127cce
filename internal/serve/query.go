package serve

// The query path: every query endpoint — the GET routes and POST /v1/query,
// on whichever codec — is one pass through decode (wire.DecodeHTTP) →
// validate → execute on the executor → respond. How a request arrived
// selects only the response mode; it cannot change the answer.

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"time"

	"mcn"
	"mcn/internal/wire"
)

// handleQuery answers every query endpoint. The HTTP request context rides
// into the query, so a client hanging up aborts it mid-expansion.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, mode, _, err := wire.DecodeHTTP(w, r)
	var req mcn.BatchRequest
	if err == nil {
		req, err = s.validate(q)
	}
	switch {
	case err != nil:
		s.respond(w, mode, nil, err)
	case q.Period():
		out, err := s.runPeriodSweep(r.Context(), q, req)
		s.respond(w, mode, out, err)
	case mode == wire.ModeNDJSON:
		s.streamQuery(w, r, q, req)
	default:
		resp := s.exec.Do(r.Context(), req)
		if resp.Err != nil {
			s.respond(w, mode, nil, resp.Err)
			return
		}
		s.respond(w, mode, &wire.Result{
			Query:      q.QueryName(),
			Count:      len(resp.Result.Facilities),
			Facilities: wire.FromFacilities(resp.Result.Facilities),
			Stats:      resp.Result.Stats,
			LatencyMS:  float64(resp.Latency.Microseconds()) / 1000,
		}, nil)
	}
}

// validate holds every semantic check of a decoded request, once for all
// decoders, and builds the executor's form of it: every rule a client can
// break is refused here, with an error wrapping wire.ErrInvalid, so an error
// the query itself returns is never the caller's. For the period kinds it is
// the static skyline or top-k request at the sweep's location, which the
// executor admits and times like any other; runPeriodSweep reads the range
// off q.
//
// A client may tighten its deadline with timeout_ms but never loosen it past
// the server's own bound: a huge value would pin an executor slot far beyond
// what the operator configured. Zero means the server default.
func (s *Server) validate(q *wire.Request) (mcn.BatchRequest, error) {
	fail := func(format string, args ...any) (mcn.BatchRequest, error) {
		return mcn.BatchRequest{}, wire.Invalidf(format, args...)
	}
	engine := mcn.WithEngine(mcn.CEA)
	if q.Engine == "lsa" { // the decoders admit only "" and "lsa"
		engine = mcn.WithEngine(mcn.LSA)
	}
	if q.TimeoutMS < 0 {
		return fail("invalid timeout_ms %d", q.TimeoutMS)
	}
	timeout := time.Duration(q.TimeoutMS) * time.Millisecond
	if s.timeout > 0 && timeout > s.timeout {
		timeout = s.timeout
	}
	if q.Period() {
		if s.tnet == nil {
			return fail("period queries unavailable: no time-dependent network attached")
		}
		if !q.FiniteRange() {
			return fail("invalid period [%g, %g) (want finite from < to)", q.From, q.To)
		}
	}

	// Locations: Edge/T, or the multisource Edges/Ts (Ts empty = 0.5 each).
	edges, ts := []int{q.Edge}, []float64{q.T}
	if q.Scatter() {
		if edges, ts = q.Edges, q.Ts; len(edges) == 0 {
			return fail("missing edges parameter (want at least one edge id)")
		}
		if len(ts) > 0 && len(ts) != len(edges) {
			return fail("got %d ts for %d edges", len(ts), len(edges))
		}
	}
	locs := make([]mcn.Location, len(edges))
	for i, e := range edges {
		if e < 0 || e >= s.net.NumEdges() {
			return fail("edge %d out of range (network has %d edges)", e, s.net.NumEdges())
		}
		locs[i] = mcn.Location{Edge: mcn.EdgeID(e), T: 0.5}
		if len(ts) > 0 {
			locs[i].T = ts[i]
		}
		if t := locs[i].T; !(t >= 0 && t <= 1) {
			return fail("invalid t %g (want a fraction in [0, 1])", t)
		}
	}

	// k for the kinds that take one, the cost type for the kinds that name
	// one.
	ranked := q.Kind == wire.KindTopK || q.Kind == wire.KindTopKPeriod || q.Kind == wire.KindMultiSourceTopK
	if (ranked || q.Kind == wire.KindNearest) && q.K < 1 {
		return fail("invalid k %d (want k >= 1)", q.K)
	}
	if (q.Kind == wire.KindNearest || q.Scatter()) && (q.Cost < 0 || q.Cost >= s.net.D()) {
		return fail("cost %d out of range (network has %d cost types)", q.Cost, s.net.D())
	}

	// The top-k aggregate: explicit weights, or uniform when empty, over the
	// d cost types — for multisource, over the |locs| per-source distances.
	var agg mcn.Aggregate
	if ranked {
		arity := s.net.D()
		if q.Scatter() {
			arity = len(locs)
		}
		coef := q.Weights
		if len(coef) == 0 {
			coef = make([]float64, arity)
			for i := range coef {
				coef[i] = 1
			}
		}
		if len(coef) != arity {
			return fail("got %d weights, want %d", len(coef), arity)
		}
		for _, a := range coef {
			if !(a >= 0) || math.IsInf(a, 1) { // WeightedSum panics on the former
				return fail("invalid weight %g (want a finite non-negative number)", a)
			}
		}
		agg = mcn.WeightedSum(coef...)
	}

	var req mcn.BatchRequest
	switch q.Kind {
	case wire.KindSkyline, wire.KindSkylinePeriod:
		req = mcn.SkylineRequest(locs[0], engine)
	case wire.KindTopK, wire.KindTopKPeriod:
		req = mcn.TopKRequest(locs[0], agg, q.K, engine)
	case wire.KindNearest:
		req = mcn.NearestRequest(locs[0], q.Cost, q.K)
	case wire.KindWithin:
		if len(q.Budget) != s.net.D() {
			return fail("budget has %d components, network has %d", len(q.Budget), s.net.D())
		}
		for _, b := range q.Budget {
			if !(b >= 0) {
				return fail("invalid budget component %g (want a non-negative number)", b)
			}
		}
		req = mcn.WithinRequest(locs[0], mcn.Of(q.Budget...), engine)
	case wire.KindMultiSourceSkyline:
		req = mcn.MultiSourceSkylineRequest(q.Cost, locs, engine)
	case wire.KindMultiSourceTopK:
		req = mcn.MultiSourceTopKRequest(q.Cost, locs, agg, q.K, engine)
	default:
		return fail("unknown query kind %q", q.Kind)
	}
	req.Timeout = timeout
	return req, nil
}

// runPeriodSweep runs one time-dependent sweep over [q.From, q.To) on the
// executor, like any other query, and renders its intervals: one per
// maximal constant preferred set. req carries the static kind of the sweep,
// so a panic in it is reported as a skyline or top-k query's.
func (s *Server) runPeriodSweep(ctx context.Context, q *wire.Request, req mcn.BatchRequest) (*wire.PeriodResult, error) {
	var intervals []mcn.IntervalResult
	resp := s.exec.Run(ctx, req, func(ctx context.Context) (err error) {
		if q.Kind == wire.KindTopKPeriod {
			intervals, err = s.tnet.TopKOverPeriod(ctx, req.Loc, req.Agg, req.K, q.From, q.To, req.Opts)
		} else {
			intervals, err = s.tnet.SkylineOverPeriod(ctx, req.Loc, q.From, q.To, req.Opts)
		}
		return err
	})
	if resp.Err != nil {
		return nil, resp.Err
	}
	out := &wire.PeriodResult{
		Query:     q.QueryName(),
		Count:     len(intervals),
		Intervals: make([]wire.Interval, len(intervals)),
		LatencyMS: float64(resp.Latency.Microseconds()) / 1000,
	}
	for i, iv := range intervals {
		out.Intervals[i] = wire.Interval{
			From:       iv.From,
			To:         iv.To,
			Count:      len(iv.Result.Facilities),
			Facilities: wire.FromFacilities(iv.Result.Facilities),
			Stats:      iv.Result.Stats,
		}
	}
	return out, nil
}

// streamQuery is the NDJSON response mode of /skyline and /topk (stream=1):
// one wire.Facility per line, flushed the moment the progressive search
// confirms it (skyline) or the incremental iterator produces it in ascending
// score order (top-k, up to k), then a terminal done-line on
// success or an in-band error line on failure. The NDJSON headers go out
// with the first line, so a query that fails before it — shed, drained,
// timed out, a storage fault — is answered by respond like a buffered one.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request, q *wire.Request, req mcn.BatchRequest) {
	flusher, _ := w.(http.Flusher)
	var line []byte
	count := 0
	write := func() error {
		if count == 0 {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
		}
		_, err := w.Write(append(line, '\n'))
		return err
	}
	resp := s.exec.Run(r.Context(), req, func(ctx context.Context) error {
		engine := mcn.WithEngine(req.Opts.Engine)
		seq := s.net.SkylineSeq(ctx, req.Loc, engine)
		if q.Kind == wire.KindTopK {
			seq = s.net.TopKSeq(ctx, req.Loc, req.Agg, engine)
		}
		for f, err := range seq {
			if err != nil {
				return err
			}
			line = wire.AppendFacility(line[:0], &wire.Facility{ID: f.ID, Costs: wire.Costs(f.Costs), Score: f.Score})
			if write() != nil {
				return nil // client went away; abort the query
			}
			if count++; flusher != nil {
				flusher.Flush()
			}
			if count == req.K {
				return nil
			}
		}
		return nil
	})
	if resp.Err != nil {
		if count == 0 {
			s.respond(w, wire.ModeNDJSON, nil, resp.Err)
			return
		}
		json.NewEncoder(w).Encode(classify(resp.Err).Error(resp.Err)) //nolint:errcheck // client gone; nothing to do
		return
	}
	// Terminal line: lets clients distinguish a complete result from a
	// truncated connection.
	line, err := wire.AppendStreamDone(line[:0], count, float64(resp.Latency.Microseconds())/1000)
	if err == nil {
		write() //nolint:errcheck // client gone; nothing to do
	}
}

// respond renders the outcome of a query in the negotiated mode: out on
// success, otherwise err's failure class — its status, its Retry-After when
// it cools, its client-safe message.
func (s *Server) respond(w http.ResponseWriter, mode wire.Mode, out any, err error) {
	if err == nil {
		wire.Write(w, mode, http.StatusOK, out)
		return
	}
	c := classify(err)
	s.noteShed(c)
	c.Write(w, mode, c.Error(err))
}
