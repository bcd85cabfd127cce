package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"mcn/internal/wire"
)

// Gateway is the cluster front. Every query — a GET route or POST /v1/query,
// on whichever codec, of any of the eight kinds — is decoded once into a
// wire.Request and proxied verbatim to one replica chosen on the hash ring,
// with failover down the candidate list. Every replica holds the whole
// network, so one replica answers a multi-source or period query in full,
// and the response is that replica's, byte for byte.
type Gateway struct {
	m      *Membership
	router *Router
	client *http.Client

	proxied   atomic.Int64
	failovers atomic.Int64
}

// NewGateway builds a gateway over the membership with the given routing
// policy, proxying through the membership's transport. timeout bounds each
// backend request (0 = no client-side bound; the replicas enforce their own
// -timeout); one that fires answers the deadline class.
func NewGateway(m *Membership, policy Policy, timeout time.Duration) *Gateway {
	return &Gateway{
		m:      m,
		router: NewRouter(m, policy),
		client: &http.Client{Transport: m.client.Transport, Timeout: timeout},
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
	now := g.m.now()
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
			"failovers":           g.failovers.Load(),
			"retry_after_clamped": g.m.RetryAfterClamped(),
		},
	})
}

// errNoBackend is the gateway's own shed: no candidate was left to ask.
var errNoBackend = errors.New("cluster: no backend available")

// unavailable is the gateway's own shed response, the replicas' shed class
// so clients need only one retry discipline.
func unavailable(w http.ResponseWriter, mode wire.Mode) {
	wire.ClassShed.Write(w, mode, wire.ClassShed.Error(errNoBackend))
}

// handle answers every query endpoint: decode, then proxy. A request the
// shared decoder rejects is answered here with the 400 a replica would give;
// the decoded request is what routing keys on.
func (g *Gateway) handle(w http.ResponseWriter, r *http.Request) {
	q, mode, body, err := wire.DecodeHTTP(w, r)
	if err != nil {
		wire.ClassInvalid.Write(w, mode, wire.ClassInvalid.Error(err))
		return
	}
	g.proxy(w, r, q, mode, body)
}

// roundTrip issues one prepared backend request, maintaining the backend's
// inflight count (for /stats) and health state, and returns the answer's
// row of the failure table. A transport error marks the backend down,
// unless the client's own context ended first or the gateway's own timeout
// fired: neither is the backend's fault, and the probes find a backend that
// is really hung. The gateway's timeout is the deadline class, as a
// replica's own deadline is. An answer whose class cools cools the backend
// for the advertised Retry-After, clamped to MaxRetryAfter; any other
// retryable failure counts against it. The caller owns resp.Body.
func (g *Gateway) roundTrip(r *http.Request, b *Backend, req *http.Request) (*http.Response, wire.Failure, error) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	resp, err := g.client.Do(req)
	if err != nil {
		if r.Context().Err() == nil && !errors.Is(err, context.DeadlineExceeded) {
			b.markDown()
		}
		return nil, wire.Failure{}, err
	}
	f := wire.StatusFailure(resp.StatusCode)
	switch {
	case f.Cools:
		b.cool(g.m.now(), g.m.retryAfter(resp, time.Second))
	case f.Retryable:
		b.failures.Add(1)
	}
	return resp, f, nil
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
// to one replica chosen on the hash ring, before any response byte has
// been written, so the client sees exactly one clean answer. Routing keys on
// the decoded request, so every codec's form of one query (t=0.50 as much as
// t=0.5) shares a replica and its result cache.
//
// The candidates are tried in order, and the failure table decides what an
// answer's status means: a retryable class, or a transport error, moves on
// to the next candidate, and any other answer is relayed — the replicas are
// deterministic, so one replica's client error is every replica's, and a
// deadline re-run elsewhere would only pass again. The gateway's own
// timeout is a deadline too. The last candidate's retryable answer is
// relayed, unless its class cools (the replica asked for no traffic) or it
// never answered: then the gateway sheds. Once the client has hung up
// nobody will read an answer, so no further candidate is tried.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, q *wire.Request, mode wire.Mode, body []byte) {
	cands := g.router.Candidates(CanonicalKey(q), g.m.Available())
	for i, b := range cands {
		if r.Context().Err() != nil {
			return
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, b.url+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			continue
		}
		copyEndToEnd(req.Header, r.Header)
		resp, f, err := g.roundTrip(r, b, req)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// The gateway's own timeout: a deadline, re-run nowhere.
			wire.ClassDeadline.Write(w, mode, wire.ClassDeadline.Error(err))
			return
		case err != nil:
			continue
		case f.Cools || f.Retryable && i < len(cands)-1:
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
