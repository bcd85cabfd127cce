package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcn/internal/core"
	"mcn/internal/graph"
	"mcn/internal/wire"
)

// Gateway is the cluster front. Every query — a GET route or POST /v1/query,
// on whichever codec — is decoded once into a wire.Request and then takes one
// of three routes: single-location queries are proxied verbatim to one
// replica (with overload-aware failover), multi-source queries are scattered
// to every available replica, and period queries are range-split across
// them; the gathered parts merge through the core dominance re-filter and
// seam fusion, so the response equals a single replica's answer.
type Gateway struct {
	m      *Membership
	router *Router
	client *http.Client

	proxied   atomic.Int64
	scattered atomic.Int64
	failovers atomic.Int64
}

// NewGateway builds a gateway over the membership with the given routing
// policy. timeout bounds each backend request (0 = no client-side bound; the
// replicas enforce their own -timeout).
func NewGateway(m *Membership, policy Policy, timeout time.Duration) *Gateway {
	// The default transport keeps only 2 idle connections per host; a
	// gateway funnels every client through a handful of backends, so raise
	// the pool or concurrent traffic churns through fresh connections.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	return &Gateway{
		m:      m,
		router: NewRouter(m, policy),
		client: &http.Client{Transport: tr, Timeout: timeout},
	}
}

// Handler returns the gateway's HTTP handler: the GET query routes — one per
// wire kind — and POST /v1/query all land on handle.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /stats", g.handleStats)
	for _, kind := range wire.Kinds {
		mux.HandleFunc("GET /"+kind, g.handle)
	}
	mux.HandleFunc("POST /v1/query", g.handle)
	return mux
}

// handleReadyz reports ready while at least one backend is available.
func (g *Gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	n := len(g.m.Available())
	if n == 0 {
		unavailable(w, wire.ModeJSON)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "backends": n})
}

func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	backends := make([]map[string]any, 0, len(g.m.Backends()))
	for _, b := range g.m.Backends() {
		backends = append(backends, map[string]any{
			"url":       b.url,
			"healthy":   b.healthy.Load(),
			"available": b.available(now),
			"inflight":  b.inflight.Load(),
			"proxied":   b.proxied.Load(),
			"failures":  b.failures.Load(),
		})
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"policy":   g.router.Policy().String(),
		"backends": backends,
		"gateway": map[string]int64{
			"proxied":             g.proxied.Load(),
			"scattered":           g.scattered.Load(),
			"failovers":           g.failovers.Load(),
			"retry_after_clamped": g.m.RetryAfterClamped(),
		},
	})
}

// unavailable is the gateway's own shed response, mirroring the replicas'
// overload contract so clients need only one retry discipline.
func unavailable(w http.ResponseWriter, mode wire.Mode) {
	wire.WriteShed(w, mode, wire.Error{Error: "cluster: no backend available"})
}

// handle answers every query endpoint: decode, then route | scatter | split.
// A request the shared decoder rejects is answered here with the 400 a
// replica would give. A period query whose range cannot be split is proxied,
// so the replica's own answer (or error) is the response.
func (g *Gateway) handle(w http.ResponseWriter, r *http.Request) {
	q, mode, body, err := wire.DecodeHTTP(w, r)
	if err != nil {
		wire.Write(w, mode, http.StatusBadRequest, wire.Error{Error: err.Error()})
		return
	}
	avail := g.m.Available()
	var bounds []float64
	if q.Period() {
		bounds = split(q, len(avail))
	}
	switch {
	case len(avail) == 0:
		unavailable(w, mode)
	case q.Scatter() || bounds != nil:
		g.fanOut(w, r, q, mode, avail, bounds)
	default:
		g.proxy(w, r, q, mode, body, avail)
	}
}

// split cuts a period query's [from, to) into n contiguous sub-ranges and
// returns their n+1 boundaries, or nil when there is nothing to split: a
// single part, a range a replica would refuse, or one so narrow that a part
// would come out empty. The interpolation weights from and to separately,
// so a range wider than the largest float still splits.
func split(q *wire.Request, n int) []float64 {
	if n < 2 || !q.FiniteRange() {
		return nil
	}
	bounds := make([]float64, n+1)
	for i := range bounds {
		f := float64(i) / float64(n)
		bounds[i] = q.From*(1-f) + q.To*f
		if i > 0 && !(bounds[i-1] < bounds[i]) {
			return nil
		}
	}
	return bounds
}

// roundTrip issues one prepared backend request, maintaining the backend's
// inflight and health state. A transport error marks the backend down (unless
// the client's own context ended first — that is not the backend's fault); a
// 503 cools it for the advertised Retry-After, clamped to MaxRetryAfter. The
// caller owns resp.Body.
func (g *Gateway) roundTrip(r *http.Request, b *Backend, req *http.Request) (*http.Response, error) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	resp, err := g.client.Do(req)
	if err != nil {
		if r.Context().Err() == nil {
			b.markDown()
		}
		return nil, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		b.cool(g.m.now(), g.m.retryAfter(resp, time.Second))
	}
	return resp, nil
}

// hopByHop are the hop-by-hop headers of RFC 9110 §7.6.1: they describe one
// connection, not the message, and must not cross the gateway in either
// direction (a relayed Transfer-Encoding or Connection: close would corrupt
// or kill the next connection).
var hopByHop = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// copyEndToEnd adds src's headers to dst minus the hop-by-hop ones — the
// RFC 9110 set plus anything src named in Connection — as
// httputil.ReverseProxy does.
func copyEndToEnd(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
	for _, f := range strings.Split(src.Get("Connection"), ",") {
		if f = strings.TrimSpace(f); f != "" {
			dst.Del(f)
		}
	}
	for _, h := range hopByHop {
		dst.Del(h)
	}
}

// proxy forwards the client's request verbatim — method, URI, body, headers —
// to one replica chosen by the routing policy, failing over to the next
// candidate on transport error or 503, before any response byte has been
// written, so the client sees exactly one clean answer. Routing keys on the
// decoded request, so every codec's form of one query (t=0.50 as much as
// t=0.5) shares a replica and its result cache.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, q *wire.Request, mode wire.Mode, body []byte, avail []*Backend) {
	for i, b := range g.router.Candidates(CanonicalKey(q), avail) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, b.url+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			continue
		}
		copyEndToEnd(req.Header, r.Header)
		resp, err := g.roundTrip(r, b, req)
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			resp.Body.Close()
			continue
		}
		if i > 0 {
			g.failovers.Add(1)
		}
		b.proxied.Add(1)
		g.proxied.Add(1)
		relay(w, resp)
		return
	}
	// Every candidate was overloaded or unreachable: shed with the same
	// contract the replicas use.
	unavailable(w, mode)
}

// relay copies a backend response through: status, end-to-end headers, and
// the body chunk by chunk with a flush after each write, which makes NDJSON
// (stream=1) rows flow incrementally.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	copyEndToEnd(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// fanOut answers a multi-source or period query from every available
// replica at once: one leg per replica, gathered concurrently, merged, and
// rendered in the client's codec.
//
// A multi-source query goes to each replica whole, without failover (every
// replica is already asked). A period query goes out as one sub-range of
// bounds per replica, and each part fails over to the other replicas: its
// sub-range has one primary but any replica can answer it.
//
// Leg requests are always MCNB; leg responses are in the client's codec.
// Every leg is an MCNB request frame to the replica's /v1/query — request
// floats are float64 in the frame, so the sub-range bounds arrive exact —
// with Accept set to the client's response codec: binary clients get
// float32-narrowed parts that re-encode byte-identically, JSON clients get
// float64 parts, so the merged answer is byte-identical to a single
// replica's in either codec. That is why the gateway has a JSON leg decoder
// beside the MCNB one: asking for MCNB parts on behalf of a JSON client
// would narrow its floats to float32.
func (g *Gateway) fanOut(w http.ResponseWriter, r *http.Request, q *wire.Request, mode wire.Mode, avail []*Backend, bounds []float64) {
	start := time.Now()
	g.scattered.Add(1)
	accept, decode := wire.ContentTypeJSON, decodeResultInto
	if q.Period() {
		decode = decodePeriodInto
	}
	if mode == wire.ModeBinary {
		accept, decode = wire.ContentTypeBinary, decodeWireInto
	}
	outs := make([]gathered, len(avail))
	var wg sync.WaitGroup
	for i, b := range avail {
		part, cands := *q, []*Backend{b}
		if q.Period() {
			part.From, part.To = bounds[i], bounds[i+1]
			for _, o := range avail {
				if o != b {
					cands = append(cands, o)
				}
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frame, err := wire.EncodeRequest(&part)
			if err != nil {
				// Not reachable for a request that decoded; answered as the
				// leg's 400 all the same.
				outs[i] = gathered{errStatus: http.StatusBadRequest, errBody: wire.EncodeError(http.StatusBadRequest, err.Error())}
				return
			}
			outs[i] = g.gather(r, cands, gatherSpec{
				issue: func(cand *Backend) (*http.Response, error) {
					req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, cand.url+"/v1/query", bytes.NewReader(frame))
					if err != nil {
						return nil, err
					}
					req.Header.Set("Content-Type", wire.ContentTypeBinary)
					req.Header.Set("Accept", accept)
					return g.roundTrip(r, cand, req)
				},
				decode: decode,
			})
		}(i)
	}
	wg.Wait()

	if out := merge(q, outs, start); out != nil {
		wire.Write(w, mode, http.StatusOK, out)
	} else {
		writeGatherError(w, mode, outs)
	}
}

// writeGatherError answers a fan-out whose parts could not be merged with one
// part's error, re-rendered in the client's codec: a 4xx first (the replicas
// are deterministic, so any one's client error is the canonical one), then
// any 5xx. With no error captured the cluster is overloaded or gone, and the
// gateway sheds.
func writeGatherError(w http.ResponseWriter, mode wire.Mode, outs []gathered) {
	var pick *gathered
	for i := range outs {
		if o := &outs[i]; o.errStatus != 0 && (pick == nil ||
			o.errStatus < http.StatusInternalServerError && pick.errStatus >= http.StatusInternalServerError) {
			pick = o
		}
	}
	if pick == nil {
		unavailable(w, mode)
		return
	}
	// The part's body is an error frame or a JSON envelope, whichever codec
	// the leg asked for.
	msg := "backend error"
	if payload, err := wire.ReadFrame(bytes.NewReader(pick.errBody), wire.MaxResponseFrame); err == nil {
		if resp, err := wire.DecodeResponse(payload); err == nil && resp.Message != "" {
			msg = resp.Message
		}
	} else {
		var e wire.Error
		if json.Unmarshal(pick.errBody, &e) == nil && e.Error != "" {
			msg = e.Error
		}
	}
	wire.Write(w, mode, pick.errStatus, wire.Error{Error: msg})
}

// merge combines the gathered parts into the response envelope, or returns
// nil when they cannot answer: a period query needs every part, a
// multi-source query at least one.
//
// Multi-source parts merge through the core dominance re-filter. With
// replicated backends each replica already answers the full query, so the
// merge — dedup by id, re-filter — is an idempotent no-op and the merged
// facility list equals any single replica's. (The same merge is exactly
// what a partitioned tier will need, where it stops being a no-op.)
//
// Period parts are concatenated in range order, fusing the seam intervals
// when the preferred set does not change across a part boundary — the same
// criterion the single-node sweep uses to merge adjacent elementary
// intervals. Within one elementary interval the answer is constant, so a
// split landing mid-interval always fuses back, and the stitched list equals
// the single-node sweep's.
func merge(q *wire.Request, outs []gathered, start time.Time) any {
	if q.Period() {
		var intervals []wire.Interval
		for _, o := range outs {
			if o.period == nil {
				return nil
			}
			for _, iv := range o.period.Intervals {
				if n := len(intervals); n > 0 && sameIntervalIDs(intervals[n-1], iv) {
					// Extend the left interval, keeping its result and stats,
					// exactly as the single-node sweep would have.
					intervals[n-1].To = iv.To
					continue
				}
				intervals = append(intervals, iv)
			}
		}
		return &wire.PeriodResult{
			Query:     q.QueryName(),
			Count:     len(intervals),
			Intervals: intervals,
			LatencyMS: float64(time.Since(start)) / float64(time.Millisecond),
		}
	}
	parts := make([]*core.Result, 0, len(outs))
	for _, o := range outs {
		if o.result != nil {
			parts = append(parts, &core.Result{
				Facilities: wire.ToFacilities(o.result.Facilities),
				Stats:      o.result.Stats,
			})
		}
	}
	if len(parts) == 0 {
		return nil
	}
	var merged *core.Result
	if q.Kind == wire.KindMultiSourceTopK {
		merged = core.MergeTopK(q.K, parts...)
	} else {
		merged = core.MergeSkylines(parts...)
	}
	return &wire.Result{
		Query:      q.QueryName(),
		Count:      len(merged.Facilities),
		Facilities: wire.FromFacilities(merged.Facilities),
		Stats:      merged.Stats,
		LatencyMS:  float64(time.Since(start)) / float64(time.Millisecond),
	}
}

// gathered is one leg's outcome.
type gathered struct {
	result *wire.Result
	period *wire.PeriodResult
	// errStatus/errBody hold a non-503 error response to relay.
	errStatus int
	errBody   []byte
}

// gatherSpec parameterizes gather over the codec: issue sends the query to
// one candidate, decode parses a 200 body into the gathered slot.
type gatherSpec struct {
	issue  func(cand *Backend) (*http.Response, error)
	decode func(out *gathered, body []byte) error
}

// gather tries candidates in order until one yields a decodable answer. A
// 503 or transport error moves on to the next candidate; a 4xx is returned
// immediately — the replicas are deterministic, so a client error from one is
// the canonical answer from all — while a 5xx is one replica's internal
// failure, kept only as a fallback while the remaining candidates get their
// chance. No more than wire.MaxResponseFrame bytes of a response are read:
// a longer body — a replica streaming without end — is that replica's
// failure, counted and failed over like an undecodable one.
func (g *Gateway) gather(r *http.Request, cands []*Backend, spec gatherSpec) gathered {
	var out gathered
	for i, cand := range cands {
		// The client hung up: nobody will read an answer, so stop burning
		// replica capacity on failover attempts.
		if r.Context().Err() != nil {
			return out
		}
		resp, err := spec.issue(cand)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			resp.Body.Close()
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, wire.MaxResponseFrame+1))
		resp.Body.Close()
		if err != nil {
			cand.markDown()
			continue
		}
		if len(body) > wire.MaxResponseFrame {
			cand.failures.Add(1)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			if resp.StatusCode < http.StatusInternalServerError {
				out.errStatus, out.errBody = resp.StatusCode, body
				return out
			}
			cand.failures.Add(1)
			if out.errStatus == 0 {
				out.errStatus, out.errBody = resp.StatusCode, body
			}
			continue
		}
		if err := spec.decode(&out, body); err != nil {
			cand.failures.Add(1)
			continue
		}
		out.errStatus, out.errBody = 0, nil
		if i > 0 {
			g.failovers.Add(1)
		}
		cand.proxied.Add(1)
		return out
	}
	return out
}

// decodeResultInto parses the JSON 200 body of a multi-source leg for merging.
func decodeResultInto(out *gathered, body []byte) error {
	var res wire.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	out.result = &res
	return nil
}

// decodePeriodInto parses the JSON 200 body of a period leg for merging.
func decodePeriodInto(out *gathered, body []byte) error {
	var per wire.PeriodResult
	if err := json.Unmarshal(body, &per); err != nil {
		return err
	}
	out.period = &per
	return nil
}

// decodeWireInto parses a binary 200 body for merging.
func decodeWireInto(out *gathered, body []byte) error {
	payload, err := wire.ReadFrame(bytes.NewReader(body), wire.MaxResponseFrame)
	if err != nil {
		return err
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		return err
	}
	if resp.Result == nil && resp.Period == nil {
		return fmt.Errorf("cluster: error frame in 200 response")
	}
	out.result, out.period = resp.Result, resp.Period
	return nil
}

// sameIntervalIDs reports whether two intervals answer with the same
// facility multiset — the seam-fusion criterion, matching the single-node
// sweep's.
func sameIntervalIDs(a, b wire.Interval) bool {
	if len(a.Facilities) != len(b.Facilities) {
		return false
	}
	ids := make(map[graph.FacilityID]int, len(a.Facilities))
	for _, f := range a.Facilities {
		ids[f.ID]++
	}
	for _, f := range b.Facilities {
		if ids[f.ID] == 0 {
			return false
		}
		ids[f.ID]--
	}
	return true
}
