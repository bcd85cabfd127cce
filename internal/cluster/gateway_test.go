package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

func get(t *testing.T, c *http.Client, base, uri string) (int, []byte) {
	t.Helper()
	resp, err := c.Get(base + uri)
	if err != nil {
		t.Fatalf("GET %s: %v", uri, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", uri, err)
	}
	return resp.StatusCode, body
}

// checkEquivalent asserts the gateway answers uri with the reference
// replica's JSON, byte for byte apart from latency_ms.
func checkEquivalent(t *testing.T, c *http.Client, gwURL, refURL, uri string) {
	t.Helper()
	gs, gb := get(t, c, gwURL, uri)
	rs, rb := get(t, c, refURL, uri)
	if gs != rs {
		t.Fatalf("%s: gateway status %d (%s), replica status %d (%s)", uri, gs, gb, rs, rb)
	}
	if gs != http.StatusOK {
		// Errors relay verbatim: the whole body must match.
		if string(gb) != string(rb) {
			t.Fatalf("%s: gateway error body %q != replica %q", uri, gb, rb)
		}
		return
	}
	if gp, rp := payload(t, uri, gb), payload(t, uri, rb); gp != rp {
		t.Fatalf("%s:\ngateway: %s\nreplica: %s", uri, gp, rp)
	}
}

// Streamed responses pass through the proxy unchanged: every NDJSON row is
// byte-identical and the terminal line reports the same count. The one test
// of the suite on a real socket: the gateway is served over TCP, so its
// relay runs net/http's own flush path.
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
		gs, gb := get(t, gwTS.Client(), gwTS.URL, uri)
		rs, rb := get(t, n.Client(), b0, uri)
		if gs != http.StatusOK || rs != http.StatusOK {
			t.Fatalf("%s: status gateway=%d replica=%d", uri, gs, rs)
		}
		glines := strings.Split(strings.TrimSpace(string(gb)), "\n")
		rlines := strings.Split(strings.TrimSpace(string(rb)), "\n")
		if len(glines) != len(rlines) {
			t.Fatalf("%s: gateway streamed %d lines, replica %d", uri, len(glines), len(rlines))
		}
		for i := 0; i < len(glines)-1; i++ {
			if glines[i] != rlines[i] {
				t.Fatalf("%s line %d: %q != %q", uri, i, glines[i], rlines[i])
			}
		}
		var gdone, rdone struct {
			Done  bool `json:"done"`
			Count int  `json:"count"`
		}
		if err := json.Unmarshal([]byte(glines[len(glines)-1]), &gdone); err != nil {
			t.Fatalf("%s: bad terminal line %q", uri, glines[len(glines)-1])
		}
		if err := json.Unmarshal([]byte(rlines[len(rlines)-1]), &rdone); err != nil {
			t.Fatal(err)
		}
		if !gdone.Done || gdone.Count != rdone.Count {
			t.Fatalf("%s: terminal line %+v, replica %+v", uri, gdone, rdone)
		}
	}
}

// Mid-batch failure: one replica sheds every request, another goes down
// outright. The gateway must keep answering — byte-identical — from the
// replica that is left, for every query kind.
func TestGatewayFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("failover sweep is slow; run without -short")
	}
	tg := newTestGrid(t)
	n := newNet(t)
	c := n.Client()
	live := tg.backend(n)
	shedding := n.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Retry-After 0: never cooled out of rotation, so every request
		// re-exercises the 503 failover path.
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	dead := tg.backend(n)

	t.Run(PolicyHash.String(), func(t *testing.T) {
		gw, gwURL := serveTestGateway(t, n, shedding, live, dead)
		// Every kind at least once, so every kind's failover is exercised.
		var uris []string
		for _, q := range randomRequests(rand.New(rand.NewSource(13)), tg.graph.NumEdges(), 12) {
			uris = append(uris, q.URI())
		}

		// First requests land while all three look healthy; the dead one
		// dies mid-batch.
		checkEquivalent(t, c, gwURL, live, uris[0])
		n.SetDown(dead, true)
		for _, uri := range uris[1:] {
			checkEquivalent(t, c, gwURL, live, uri)
		}
		if gw.failovers.Load() == 0 {
			t.Fatal("no failovers recorded across a batch with a shedding and a dead replica")
		}
	})
}

// Every replica holds the whole network, so every query — each of the eight
// kinds, in each of the three forms — costs exactly one replica request, and
// every form of one query, and every repeat of it, lands on the same
// replica.
func TestGatewaySendsOneLegPerQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("uses full serve replicas; run without -short")
	}
	tg := newTestGrid(t)
	n := newNet(t)
	var legs [2]atomic.Int64
	var backends []string
	for i := range legs {
		h, count := tg.handler(), &legs[i]
		backends = append(backends, n.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			count.Add(1)
			h.ServeHTTP(w, r)
		})))
	}
	_, gw := serveTestGateway(t, n, backends...)
	for _, q := range randomRequests(rand.New(rand.NewSource(5)), tg.graph.NumEdges(), len(wire.Kinds)) {
		first := -1
		for _, enc := range append(encodings, encodings[0]) {
			label := fmt.Sprintf("%s %s", enc.name, q.URI())
			before := [2]int64{legs[0].Load(), legs[1].Load()}
			target, body := enc.render(q)
			status, _, out := send(t, n.Client(), gw, enc.method, target, enc.contentType, "", body)
			if status != http.StatusOK && status != http.StatusBadRequest {
				t.Fatalf("%s: %d %s", label, status, out)
			}
			d0, d1 := legs[0].Load()-before[0], legs[1].Load()-before[1]
			if d0+d1 != 1 {
				t.Fatalf("%s: replicas saw %d + %d requests, want 1 in all", label, d0, d1)
			}
			if hit := int(d1); first < 0 {
				first = hit
			} else if hit != first {
				t.Fatalf("%s: answered by replica %d, an earlier form by replica %d", label, hit, first)
			}
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
	if status, _ := get(t, c, gwURL, "/readyz"); status != http.StatusServiceUnavailable {
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
	if status, _ := get(t, n.Client(), front, "/skyline?edge=0&t=0.5"); status != http.StatusOK {
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
		status, body := get(t, n.Client(), front, "/stats")
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
		checkEquivalent(t, c, gwURL, live, uri)
	}
	if got := gw.m.Backends()[0].failures.Load(); got != int64(len(uris)) {
		t.Fatalf("broken replica counted %d failures, want %d", got, len(uris))
	}
	if got := gw.failovers.Load(); got != int64(len(uris)) {
		t.Fatalf("%d failovers, want %d", got, len(uris))
	}

	// A deterministic 400 must still return immediately, not fail over into
	// a different error.
	status, body := get(t, c, gwURL, "/multisource/skyline?cost=9&edges=1,2")
	if status != http.StatusBadRequest {
		t.Fatalf("invalid cost via gateway = %d (%s), want 400", status, body)
	}

	// With no healthy replica left to try, the last one's answer is relayed.
	gw, gwURL = serveTestGateway(t, n, b0, b1)
	status, body = get(t, c, gwURL, uris[2])
	if status != http.StatusInternalServerError || string(body) != `{"error":"disk on fire"}` {
		t.Fatalf("all replicas broken: %d %s, want the last replica's 500", status, body)
	}
	for _, b := range gw.m.Backends() {
		if got := b.failures.Load(); got != 1 {
			t.Fatalf("%s counted %d failures, want 1", b.URL(), got)
		}
	}
}

// Cross-codec negotiation on the gateway's /v1/query, in both directions:
// the replica negotiates and the gateway relays its answer.
func TestGatewayV1QueryNegotiation(t *testing.T) {
	if testing.Short() {
		t.Skip("uses full serve replicas; run without -short")
	}
	tg := newTestGrid(t)
	n := newNet(t)
	c := n.Client()
	_, gwURL := serveTestGateway(t, n, tg.backend(n), tg.backend(n))

	// Binary in, JSON out, on a multi-source kind: the replica negotiates,
	// the gateway relays its JSON.
	q := &wire.Request{Kind: wire.KindMultiSourceSkyline, Cost: 0, Edges: []int{3, 71}, Ts: []float64{0.5, 0.5}}
	frame, err := wire.EncodeRequest(q)
	if err != nil {
		t.Fatal(err)
	}
	status, hdr, body := send(t, c, gwURL, http.MethodPost, "/v1/query", wire.ContentTypeBinary, wire.ContentTypeJSON, frame)
	if status != http.StatusOK {
		t.Fatalf("binary→json multisource status %d (%s)", status, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("binary→json multisource Content-Type = %q", ct)
	}
	var res wire.Result
	if err := json.Unmarshal(body, &res); err != nil || res.Query != "multisource_skyline" {
		t.Fatalf("binary→json multisource body %q (err %v)", body, err)
	}

	// JSON in, binary out, on a single-location kind: the gateway relays
	// the replica's frame untouched.
	jsonBody := []byte(`{"kind":"skyline","edge":17}`)
	status, hdr, body = send(t, c, gwURL, http.MethodPost, "/v1/query", wire.ContentTypeJSON, wire.ContentTypeBinary, jsonBody)
	if status != http.StatusOK {
		t.Fatalf("json→binary proxy status %d", status)
	}
	if ct := hdr.Get("Content-Type"); ct != wire.ContentTypeBinary {
		t.Fatalf("json→binary proxy Content-Type = %q", ct)
	}
	if resp := decodeBinaryBody(t, body); resp.Result == nil || resp.Result.Query != "skyline" {
		t.Fatalf("json→binary proxy decoded %+v", resp)
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
