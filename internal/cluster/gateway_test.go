package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcn"
	"mcn/internal/serve"
	"mcn/internal/testsupport/memnet"
	"mcn/internal/wire"
)

// testGrid is the shared synthetic network every test backend serves: the
// replicas are identical by construction (same seed, same deterministic
// time profiles), which is the deployment the gateway targets.
type testGrid struct {
	graph *mcn.Graph
	tnet  *mcn.TimeNetwork
}

func newTestGrid(t *testing.T) *testGrid {
	t.Helper()
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 600, Facilities: 100, D: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tnet := mcn.TimeDependent(g)
	// Dense profiles so period queries answer with several intervals.
	if err := mcn.AttachSyntheticProfiles(tnet, 600, 11); err != nil {
		t.Fatal(err)
	}
	return &testGrid{graph: g, tnet: tnet}
}

// handler is one mcnserve replica's handler over the grid.
func (tg *testGrid) handler() http.Handler {
	return serve.New(mcn.FromGraph(tg.graph), serve.Config{
		Workers: 4,
		Timeout: time.Minute,
		TimeNet: tg.tnet,
	}).Handler()
}

// backend serves one mcnserve replica over the grid on n.
func (tg *testGrid) backend(n *memnet.Network) string { return n.Serve(tg.handler()) }

// newTestGateway builds a gateway over the given backends that proxies and
// probes through n.
func newTestGateway(t *testing.T, n *memnet.Network, urls ...string) *Gateway {
	t.Helper()
	return NewGateway(newTestMembership(t, n, time.Second, urls...), PolicyHash, time.Minute)
}

// serveTestGateway serves a gateway over the given backends on n and
// returns it with its URL.
func serveTestGateway(t *testing.T, n *memnet.Network, urls ...string) (*Gateway, string) {
	t.Helper()
	gw := newTestGateway(t, n, urls...)
	return gw, n.Serve(gw.Handler())
}

var latencyField = regexp.MustCompile(`"latency_ms":[^,}]*`)

// zeroLatency blanks the one field of a JSON envelope that varies per run.
func zeroLatency(body []byte) string {
	return string(latencyField.ReplaceAll(body, []byte(`"latency_ms":0`)))
}

// Streamed responses pass through the proxy unchanged: the gateway streams
// the replica's NDJSON byte for byte, done-line included, but for its
// latency. The one test of the suite on a real socket: the gateway is served
// over TCP, so its relay runs net/http's own flush path.
func TestGatewayStreamPassthrough(t *testing.T) {
	if testing.Short() {
		t.Skip("stream sweep is slow; run without -short")
	}
	tg := newTestGrid(t)
	n := newNet(t)
	b0 := tg.backend(n)
	gwTS := httptest.NewServer(newTestGateway(t, n, b0).Handler())
	t.Cleanup(gwTS.Close)
	for _, uri := range []string{
		"/skyline?edge=17&t=0.5&stream=1",
		"/topk?edge=17&t=0.5&k=5&stream=1",
	} {
		gs, _, gb := send(t, gwTS.Client(), gwTS.URL, http.MethodGet, uri, "", "", nil)
		rs, _, rb := send(t, n.Client(), b0, http.MethodGet, uri, "", "", nil)
		if gs != http.StatusOK || rs != http.StatusOK || zeroLatency(gb) != zeroLatency(rb) || !strings.Contains(string(gb), `"done":true`) {
			t.Fatalf("%s: gateway %d\n%s\nreplica %d\n%s", uri, gs, gb, rs, rb)
		}
	}
}

// draining answers every request with 503 + Retry-After, as a replica that
// is shedding or draining does.
func draining(retryAfter string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", retryAfter)
		w.WriteHeader(http.StatusServiceUnavailable)
	})
}

// With every replica draining, the gateway itself sheds with the same
// 503 + Retry-After contract, and its /readyz turns unready.
func TestGatewayAllDraining(t *testing.T) {
	n := newNet(t)
	c := n.Client()
	_, gwURL := serveTestGateway(t, n, n.Serve(draining("3")), n.Serve(draining("3")))

	for _, uri := range []string{
		"/skyline?edge=1&t=0.5",
		"/multisource/skyline?cost=0&edges=1,2",
		"/skyline/period?edge=1&from=6&to=20",
	} {
		resp, err := c.Get(gwURL + uri)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s with all replicas draining = %d, want 503", uri, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: gateway 503 missing Retry-After", uri)
		}
	}
	// The first round cooled both replicas; the gateway is now unready.
	if status, _, _ := send(t, c, gwURL, http.MethodGet, "/readyz", "", "", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with every replica cooling = %d, want 503", status)
	}
}

// /stats must expose the routing policy, per-backend health counters, and the
// gateway's own traffic counters, and read availability off the clock that
// routing reads.
func TestGatewayStatsEndpoint(t *testing.T) {
	tg := newTestGrid(t)
	n := newNet(t)
	b := tg.backend(n)
	gw, front := serveTestGateway(t, n, b)
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	gw.m.now = clk.now

	// Drive one proxied query so the counters are non-trivial.
	if status, _, _ := send(t, n.Client(), front, http.MethodGet, "/skyline?edge=0&t=0.5", "", "", nil); status != http.StatusOK {
		t.Fatalf("skyline status = %d", status)
	}

	type backendStats struct {
		URL       string `json:"url"`
		Healthy   bool   `json:"healthy"`
		Available bool   `json:"available"`
		Inflight  int64  `json:"inflight"`
		Proxied   int64  `json:"proxied"`
	}
	var stats struct {
		Policy   string           `json:"policy"`
		Backends []backendStats   `json:"backends"`
		Gateway  map[string]int64 `json:"gateway"`
	}
	readStats := func() backendStats {
		t.Helper()
		status, _, body := send(t, n.Client(), front, http.MethodGet, "/stats", "", "", nil)
		if status != http.StatusOK {
			t.Fatalf("stats status = %d", status)
		}
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		if len(stats.Backends) != 1 {
			t.Fatalf("backends = %d, want 1", len(stats.Backends))
		}
		return stats.Backends[0]
	}
	be := readStats()
	if stats.Policy != "hash" {
		t.Errorf("policy = %q, want hash", stats.Policy)
	}
	if be.URL != b || !be.Healthy || !be.Available {
		t.Errorf("backend entry = %+v", be)
	}
	if be.Proxied != 1 {
		t.Errorf("backend proxied = %d, want 1", be.Proxied)
	}
	if stats.Gateway["proxied"] != 1 {
		t.Errorf("gateway proxied = %d, want 1", stats.Gateway["proxied"])
	}

	// A cooling backend is routed around; /stats must say so, and say it is
	// back once the cool-off has run out on the same clock.
	gw.m.Backends()[0].cool(clk.now(), 5*time.Second)
	for _, step := range []string{"cooling", "cool-off over"} {
		routed := len(gw.m.Available()) == 1
		if be := readStats(); be.Available != routed || !be.Healthy {
			t.Errorf("%s: /stats available = %v, healthy = %v; routing sees available = %v", step, be.Available, be.Healthy, routed)
		}
		clk.advance(6 * time.Second)
	}
}

// A replica advertising an absurd Retry-After must not take itself out of
// rotation for longer than MaxRetryAfter, and the clamp must be counted.
func TestRetryAfterClamp(t *testing.T) {
	n := newNet(t)
	m := newTestMembership(t, n, time.Second, n.Serve(draining("3600")))
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	m.now = clk.now

	m.ProbeAll(ctx)
	if len(m.Available()) != 0 {
		t.Fatal("shedding backend still available right after the 503")
	}
	clk.advance(MaxRetryAfter - time.Second)
	if len(m.Available()) != 0 {
		t.Fatal("backend available before the clamped cool-off expired")
	}
	// One second past the ceiling: the hour-long hint must have been clamped.
	clk.advance(2 * time.Second)
	if len(m.Available()) != 1 {
		t.Fatal("backend still cooling past MaxRetryAfter; Retry-After not clamped")
	}
	if got := m.RetryAfterClamped(); got != 1 {
		t.Fatalf("RetryAfterClamped() = %d, want 1", got)
	}
}

// relay must strip the RFC 9110 hop-by-hop set plus anything the backend
// names in Connection, while passing end-to-end headers through.
func TestRelayStripsHopByHop(t *testing.T) {
	n := newNet(t)
	backend := n.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("X-End-To-End", "keep")
		h.Set("Keep-Alive", "timeout=5")
		h.Set("Proxy-Authenticate", "Basic")
		h.Set("Upgrade", "h2c")
		h.Set("Connection", "x-hop")
		h.Set("X-Hop", "leak")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"ok":true}`)
	}))

	_, gwURL := serveTestGateway(t, n, backend)
	resp, err := n.Client().Get(gwURL + "/skyline?edge=0&t=0.5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	for _, h := range []string{"Keep-Alive", "Proxy-Authenticate", "Upgrade", "X-Hop"} {
		if v := resp.Header.Get(h); v != "" {
			t.Errorf("hop-by-hop header %s = %q leaked through the gateway", h, v)
		}
	}
	if got := resp.Header.Get("X-End-To-End"); got != "keep" {
		t.Errorf("end-to-end header lost: X-End-To-End = %q, want keep", got)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q", got)
	}
}

// roundTripFunc is an http.RoundTripper from a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// Once the client's context is cancelled, proxy must stop trying failover
// candidates instead of burning through the whole replica list, and must not
// blame the replica for the client's hang-up.
func TestProxyBailsOnClientCancel(t *testing.T) {
	m, err := NewMembership([]string{"http://h:1", "http://h:2", "http://h:3"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGateway(m, PolicyHash, time.Minute)
	reqCtx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	g.client.Transport = roundTripFunc(func(*http.Request) (*http.Response, error) {
		calls.Add(1)
		cancel() // the client hangs up mid-attempt
		return nil, fmt.Errorf("transport: connection reset")
	})

	r := httptest.NewRequest(http.MethodGet, "/skyline?edge=0&t=0.5", nil).WithContext(reqCtx)
	g.proxy(httptest.NewRecorder(), r, &wire.Request{Kind: wire.KindSkyline, T: 0.5}, wire.ModeJSON, nil)
	if got := calls.Load(); got != 1 {
		t.Fatalf("proxy tried %d candidates after the client cancelled, want 1", got)
	}
	if n := len(m.Available()); n != 3 {
		t.Fatalf("%d of 3 backends available after a client hang-up, want all", n)
	}
}

// A 5xx from one replica is that replica's problem, not the query's: proxy
// must move on and answer from a healthy replica — for a single-location, a
// multi-source and a period kind alike — while a 4xx still short-circuits as
// the canonical rejection. Only the last candidate's 5xx reaches the client.
func TestProxyFailsOverOn5xx(t *testing.T) {
	if testing.Short() {
		t.Skip("uses a full serve replica; run without -short")
	}
	tg := newTestGrid(t)
	n := newNet(t)
	c := n.Client()
	live := tg.backend(n)
	broken := func() string {
		return n.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"disk on fire"}`)
		}))
	}
	b0, b1 := broken(), broken()

	gw, gwURL := serveTestGateway(t, n, b0, live)
	// Per kind, the first query whose ring order puts the broken replica
	// first, so every one of them meets it before the live one.
	brokenFirst := func(format string) string {
		for e := 5; ; e++ {
			uri := fmt.Sprintf(format, e)
			if gw.router.Candidates(routingKey(t, http.MethodGet, uri, "", nil), gw.m.Available())[0].URL() == b0 {
				return uri
			}
		}
	}
	uris := []string{
		brokenFirst("/skyline?edge=%d&t=0.5"),
		brokenFirst("/multisource/topk?edges=3,%d&k=3"),
		brokenFirst("/skyline/period?edge=%d&from=6&to=18"),
	}
	for _, uri := range uris {
		gs, _, gb := send(t, c, gwURL, http.MethodGet, uri, "", "", nil)
		if rs, _, rb := send(t, c, live, http.MethodGet, uri, "", "", nil); gs != rs || zeroLatency(gb) != zeroLatency(rb) {
			t.Fatalf("%s: gateway %d %s, the live replica %d %s", uri, gs, gb, rs, rb)
		}
	}
	if got := gw.m.Backends()[0].failures.Load(); got != int64(len(uris)) {
		t.Fatalf("broken replica counted %d failures, want %d", got, len(uris))
	}
	if got := gw.failovers.Load(); got != int64(len(uris)) {
		t.Fatalf("%d failovers, want %d", got, len(uris))
	}

	// A deterministic 400 must still return immediately, not fail over into
	// a different error.
	status, _, body := send(t, c, gwURL, http.MethodGet, "/multisource/skyline?cost=9&edges=1,2", "", "", nil)
	if status != http.StatusBadRequest {
		t.Fatalf("invalid cost via gateway = %d (%s), want 400", status, body)
	}

	// With no healthy replica left to try, the last one's answer is relayed.
	gw, gwURL = serveTestGateway(t, n, b0, b1)
	status, _, body = send(t, c, gwURL, http.MethodGet, uris[2], "", "", nil)
	if status != http.StatusInternalServerError || string(body) != `{"error":"disk on fire"}` {
		t.Fatalf("all replicas broken: %d %s, want the last replica's 500", status, body)
	}
	for _, b := range gw.m.Backends() {
		if got := b.failures.Load(); got != 1 {
			t.Fatalf("%s counted %d failures, want 1", b.URL(), got)
		}
	}
}

// With no backend available the wire path sheds in the negotiated codec with
// the standard Retry-After contract.
func TestGatewayV1QueryShed(t *testing.T) {
	n := newNet(t)
	_, gwURL := serveTestGateway(t, n, n.Serve(draining("3")))

	for _, kind := range []*wire.Request{
		{Kind: wire.KindSkyline, Edge: 1, T: 0.5},
		{Kind: wire.KindMultiSourceSkyline, Cost: 0, Edges: []int{1, 2}, Ts: []float64{0.5, 0.5}},
		{Kind: wire.KindSkylinePeriod, Edge: 1, T: 0.5, From: 6, To: 18},
	} {
		frame, err := wire.EncodeRequest(kind)
		if err != nil {
			t.Fatal(err)
		}
		status, hdr, body := send(t, n.Client(), gwURL, http.MethodPost, "/v1/query", wire.ContentTypeBinary, wire.ContentTypeBinary, frame)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("%s shed status = %d, want 503", kind.Kind, status)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatalf("%s shed missing Retry-After", kind.Kind)
		}
		if resp := decodeBinaryBody(t, body); resp.Status != http.StatusServiceUnavailable {
			t.Fatalf("%s shed frame = %+v", kind.Kind, resp)
		}
	}
}

// A replica that answers 200 and then streams without end is relayed as a
// stream: the gateway hands the client its first megabytes without reading
// the body to its end, and once the client hangs up it stops reading, so the
// replica's writes fail and its handler returns.
func TestRelayStreamsEndlessReplicaBody(t *testing.T) {
	n := newNet(t)
	chunk := bytes.Repeat([]byte{' '}, 1<<20)
	done := make(chan struct{})
	endless := n.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(done)
		w.Header().Set("Content-Type", wire.ContentTypeJSON)
		for {
			if _, err := w.Write(chunk); err != nil {
				return // the gateway hung up
			}
		}
	}))

	_, gwURL := serveTestGateway(t, n, endless)
	resp, err := n.Client().Get(gwURL + "/skyline?edge=0&t=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if n, err := io.CopyN(io.Discard, resp.Body, 4<<20); err != nil {
		t.Fatalf("read %d bytes of the relayed stream: %v", n, err)
	}
	resp.Body.Close()
	<-done // the replica's handler returned
}
