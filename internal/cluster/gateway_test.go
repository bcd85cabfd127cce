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

// backend starts one mcnserve replica over the grid.
func (tg *testGrid) backend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := serve.New(mcn.FromGraph(tg.graph), serve.Config{
		Workers: 4,
		Timeout: time.Minute,
		TimeNet: tg.tnet,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// gateway fronts the given backend URLs.
func newTestGateway(t *testing.T, policy Policy, urls ...string) (*Gateway, *httptest.Server) {
	t.Helper()
	m, err := NewMembership(urls, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(m, policy, time.Minute)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, ts
}

func get(t *testing.T, base, uri string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + uri)
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

// checkEquivalent asserts the gateway answers uri with byte-identical query,
// count and facility/interval JSON to the reference replica.
func checkEquivalent(t *testing.T, gwURL, refURL, uri string) {
	t.Helper()
	gs, gb := get(t, gwURL, uri)
	rs, rb := get(t, refURL, uri)
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
// byte-identical and the terminal line reports the same count.
func TestGatewayStreamPassthrough(t *testing.T) {
	if testing.Short() {
		t.Skip("stream sweep is slow; run without -short")
	}
	tg := newTestGrid(t)
	b0 := tg.backend(t)
	_, gwTS := newTestGateway(t, PolicyHash, b0.URL)
	for _, uri := range []string{
		"/skyline?edge=17&t=0.5&stream=1",
		"/topk?edge=17&t=0.5&k=5&stream=1",
	} {
		gs, gb := get(t, gwTS.URL, uri)
		rs, rb := get(t, b0.URL, uri)
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

// Mid-batch failure: one replica sheds every request, another is killed
// outright. The gateway must keep answering — byte-identical — from the
// replica that is left, for every query kind.
func TestGatewayFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("failover sweep is slow; run without -short")
	}
	tg := newTestGrid(t)
	live := tg.backend(t)
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Retry-After 0: never cooled out of rotation, so every request
		// re-exercises the 503 failover path.
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(shedding.Close)
	dead := tg.backend(t)

	for _, policy := range []Policy{PolicyHash, PolicyLeastInflight} {
		t.Run(policy.String(), func(t *testing.T) {
			gw, gwTS := newTestGateway(t, policy, live.URL, shedding.URL, dead.URL)
			// Every kind at least once, so the proxied, scattered and per-part
			// failover paths are all exercised.
			var uris []string
			for _, q := range randomRequests(rand.New(rand.NewSource(13)), tg.graph.NumEdges(), 12) {
				uris = append(uris, q.URI())
			}

			// First requests land while all three look healthy; the dead one
			// dies mid-batch.
			checkEquivalent(t, gwTS.URL, live.URL, uris[0])
			dead.CloseClientConnections()
			dead.Close()
			for _, uri := range uris[1:] {
				checkEquivalent(t, gwTS.URL, live.URL, uri)
			}
			if gw.failovers.Load() == 0 {
				t.Fatal("no failovers recorded across a batch with a shedding and a dead replica")
			}
		})
	}
}

// With every replica draining, the gateway itself sheds with the same
// 503 + Retry-After contract, and its /readyz turns unready.
func TestGatewayAllDraining(t *testing.T) {
	draining := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
	}
	d1, d2 := draining(), draining()
	t.Cleanup(d1.Close)
	t.Cleanup(d2.Close)
	_, gwTS := newTestGateway(t, PolicyHash, d1.URL, d2.URL)

	for _, uri := range []string{
		"/skyline?edge=1&t=0.5",
		"/multisource/skyline?cost=0&edges=1,2",
		"/skyline/period?edge=1&from=6&to=20",
	} {
		resp, err := http.Get(gwTS.URL + uri)
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
	resp, err := http.Get(gwTS.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with every replica cooling = %d, want 503", resp.StatusCode)
	}
}

// /stats must expose the routing policy, per-backend health counters, and the
// gateway's own traffic counters.
func TestGatewayStatsEndpoint(t *testing.T) {
	tg := newTestGrid(t)
	b := tg.backend(t)
	gw, front := newTestGateway(t, PolicyHash, b.URL)
	_ = gw

	// Drive one proxied query so the counters are non-trivial.
	resp, err := http.Get(front.URL + "/skyline?edge=0&t=0.5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("skyline status = %d", resp.StatusCode)
	}

	resp, err = http.Get(front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var stats struct {
		Policy   string `json:"policy"`
		Backends []struct {
			URL       string `json:"url"`
			Healthy   bool   `json:"healthy"`
			Available bool   `json:"available"`
			Inflight  int64  `json:"inflight"`
			Proxied   int64  `json:"proxied"`
		} `json:"backends"`
		Gateway map[string]int64 `json:"gateway"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Policy != "hash" {
		t.Errorf("policy = %q, want hash", stats.Policy)
	}
	if len(stats.Backends) != 1 {
		t.Fatalf("backends = %d, want 1", len(stats.Backends))
	}
	be := stats.Backends[0]
	if be.URL != b.URL || !be.Healthy || !be.Available {
		t.Errorf("backend entry = %+v", be)
	}
	if be.Proxied != 1 {
		t.Errorf("backend proxied = %d, want 1", be.Proxied)
	}
	if stats.Gateway["proxied"] != 1 {
		t.Errorf("gateway proxied = %d, want 1", stats.Gateway["proxied"])
	}
}

// A replica advertising an absurd Retry-After must not take itself out of
// rotation for longer than MaxRetryAfter, and the clamp must be counted.
func TestRetryAfterClamp(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3600")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer shedding.Close()

	m, err := NewMembership([]string{shedding.URL}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
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
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
	defer backend.Close()

	_, gwTS := newTestGateway(t, PolicyHash, backend.URL)
	resp, err := http.Get(gwTS.URL + "/skyline?edge=0&t=0.5")
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

// Once the client's context is cancelled, gather must stop trying failover
// candidates instead of burning through the whole replica list.
func TestGatherBailsOnClientCancel(t *testing.T) {
	m, err := NewMembership([]string{"http://h:1", "http://h:2", "http://h:3"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGateway(m, PolicyHash, time.Minute)

	reqCtx, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequest(http.MethodGet, "/skyline?edge=0&t=0.5", nil).WithContext(reqCtx)

	var calls atomic.Int64
	out := g.gather(r, m.Backends(), gatherSpec{
		issue: func(cand *Backend) (*http.Response, error) {
			calls.Add(1)
			cancel() // the client hangs up mid-attempt
			return nil, fmt.Errorf("transport: connection reset")
		},
		decode: decodeResultInto,
	})
	if got := calls.Load(); got != 1 {
		t.Fatalf("gather tried %d candidates after the client cancelled, want 1", got)
	}
	if out.result != nil || out.errStatus != 0 {
		t.Fatalf("cancelled gather produced %+v, want empty", out)
	}
}

// A 5xx from one replica is that replica's problem, not the query's: the
// failover path must move on and answer from a healthy replica, while a 4xx
// still short-circuits as the canonical rejection.
func TestGatherFailsOverOn5xx(t *testing.T) {
	if testing.Short() {
		t.Skip("uses a full serve replica; run without -short")
	}
	tg := newTestGrid(t)
	live := tg.backend(t)
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error":"disk on fire"}`)
	}))
	defer broken.Close()

	_, gwTS := newTestGateway(t, PolicyHash, broken.URL, live.URL)

	// A range-split period query: the part whose primary is the broken
	// replica must fail over and the stitched answer must match single-node.
	uri := "/skyline/period?edge=5&from=6&to=18"
	checkEquivalent(t, gwTS.URL, live.URL, uri)

	// A deterministic 400 must still return immediately, not fail over into
	// a different error.
	status, body := get(t, gwTS.URL, "/multisource/skyline?cost=9&edges=1,2")
	if status != http.StatusBadRequest {
		t.Fatalf("invalid cost via gateway = %d (%s), want 400", status, body)
	}
}

// Cross-codec negotiation on the gateway's /v1/query, on the route that
// renders the response itself and the one that relays a replica's.
func TestGatewayV1QueryNegotiation(t *testing.T) {
	if testing.Short() {
		t.Skip("uses full serve replicas; run without -short")
	}
	tg := newTestGrid(t)
	b0, b1 := tg.backend(t), tg.backend(t)
	_, gwTS := newTestGateway(t, PolicyHash, b0.URL, b1.URL)

	// Binary in, JSON out, on a scattered kind: the gateway itself renders
	// the merged parts as JSON.
	q := &wire.Request{Kind: wire.KindMultiSourceSkyline, Cost: 0, Edges: []int{3, 71}, Ts: []float64{0.5, 0.5}}
	frame, err := wire.EncodeRequest(q)
	if err != nil {
		t.Fatal(err)
	}
	status, hdr, body := send(t, gwTS.URL, http.MethodPost, "/v1/query", wire.ContentTypeBinary, wire.ContentTypeJSON, frame)
	if status != http.StatusOK {
		t.Fatalf("binary→json scatter status %d (%s)", status, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("binary→json scatter Content-Type = %q", ct)
	}
	var res wire.Result
	if err := json.Unmarshal(body, &res); err != nil || res.Query != "multisource_skyline" {
		t.Fatalf("binary→json scatter body %q (err %v)", body, err)
	}

	// JSON in, binary out, on a proxied kind: the replica negotiates, the
	// gateway relays the frame untouched.
	jsonBody := []byte(`{"kind":"skyline","edge":17}`)
	status, hdr, body = send(t, gwTS.URL, http.MethodPost, "/v1/query", wire.ContentTypeJSON, wire.ContentTypeBinary, jsonBody)
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
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer draining.Close()
	_, gwTS := newTestGateway(t, PolicyHash, draining.URL)

	for _, kind := range []*wire.Request{
		{Kind: wire.KindSkyline, Edge: 1, T: 0.5},
		{Kind: wire.KindMultiSourceSkyline, Cost: 0, Edges: []int{1, 2}, Ts: []float64{0.5, 0.5}},
		{Kind: wire.KindSkylinePeriod, Edge: 1, T: 0.5, From: 6, To: 18},
	} {
		frame, err := wire.EncodeRequest(kind)
		if err != nil {
			t.Fatal(err)
		}
		status, hdr, body := send(t, gwTS.URL, http.MethodPost, "/v1/query", wire.ContentTypeBinary, wire.ContentTypeBinary, frame)
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

// A replica that answers 200 and then streams without end must not be read
// into memory without bound: past wire.MaxResponseFrame the gather gives up
// on it, counts the failure and fails over.
func TestGatherBoundsReplicaBody(t *testing.T) {
	if testing.Short() {
		t.Skip("reads 64 MiB from an endless backend; run without -short")
	}
	tg := newTestGrid(t)
	live := tg.backend(t)
	chunk := bytes.Repeat([]byte{' '}, 1<<20)
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		w.Header().Set("Content-Type", r.Header.Get("Accept"))
		for {
			if _, err := w.Write(chunk); err != nil {
				return // the gateway hung up
			}
		}
	}))
	defer endless.Close()

	gw, gwTS := newTestGateway(t, PolicyHash, endless.URL, live.URL)
	// A range-split period query: the part whose primary is the endless
	// replica fails over, and the stitched answer matches single-node.
	checkEquivalent(t, gwTS.URL, live.URL, "/skyline/period?edge=5&from=6&to=18")
	if got := gw.m.Backends()[0].failures.Load(); got != 1 {
		t.Fatalf("endless replica counted %d failures, want 1 (the over-limit body)", got)
	}
	if gw.failovers.Load() == 0 {
		t.Fatal("no failover recorded for the period part the endless replica could not answer")
	}
}
