package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"mcn"
	"mcn/internal/wire"
)

// overloadServer builds a server over a small synthetic network with the
// given admission bounds, plus a gate for holding worker slots: each call to
// hold() runs a streaming skyline whose callback blocks until release().
type overloadHarness struct {
	srv     *Server
	ts      *httptest.Server
	gate    chan struct{}
	wg      sync.WaitGroup
	results chan error
}

func newOverloadHarness(t *testing.T, workers, queueDepth int) *overloadHarness {
	t.Helper()
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 600, Facilities: 120, D: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h := &overloadHarness{
		// ShedRate -1 restores the any-shed-flips-readiness behaviour: these
		// tests assert the overload machinery itself, and a single deliberate
		// shed must be visible on /readyz without manufacturing a storm (the
		// rate-threshold default has its own tests in readyz_test.go).
		srv:     New(mcn.FromGraph(g), Config{Workers: workers, Timeout: time.Minute, QueueDepth: queueDepth, ShedRate: -1}),
		gate:    make(chan struct{}),
		results: make(chan error, 16),
	}
	h.ts = httptest.NewServer(h.srv.Handler())
	t.Cleanup(h.ts.Close)
	t.Cleanup(h.wg.Wait)
	return h
}

// hold occupies one executor slot (or queue position) with a query that
// cannot progress until release.
func (h *overloadHarness) hold() {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		req := mcn.SkylineRequest(mcn.Location{Edge: 3, T: 0.5})
		resp := h.srv.exec.StreamSkyline(ctx, req, func(mcn.Facility) bool {
			<-h.gate
			return true
		})
		h.results <- resp.Err
	}()
}

// waitAdmission polls until the executor reports the wanted occupancy.
func (h *overloadHarness) waitAdmission(t *testing.T, inflight, queued int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := h.srv.exec.AdmissionStats()
		if st.Inflight == inflight && st.Queued == queued {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never reached inflight=%d queued=%d: %+v", inflight, queued, st)
		}
		time.Sleep(time.Millisecond)
	}
}

func (h *overloadHarness) release() { close(h.gate) }

func get(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// With the single worker held and the one queue slot occupied, further
// queries must be shed with 503 + Retry-After instead of queuing without
// bound — and every accepted query must still complete.
func TestOverloadSheds503(t *testing.T) {
	h := newOverloadHarness(t, 1, 1)
	h.hold() // occupies the worker
	h.hold() // occupies the queue slot
	h.waitAdmission(t, 1, 1)

	resp := get(t, h.ts, "/skyline?edge=3")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded query: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("overloaded query: Retry-After %q, want \"1\"", ra)
	}
	var e wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error != mcn.ErrOverloaded.Error() {
		t.Fatalf("overloaded query: error %q", e.Error)
	}

	// Readiness dips while shedding; liveness does not.
	if rz := get(t, h.ts, "/readyz"); rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while shedding: status %d, want 503", rz.StatusCode)
	} else {
		rz.Body.Close()
	}
	if hz := get(t, h.ts, "/healthz"); hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while shedding: status %d, want 200", hz.StatusCode)
	} else {
		hz.Body.Close()
	}

	// The shed shows up in /stats.
	var stats struct {
		Admission mcn.AdmissionStats `json:"admission"`
	}
	sr := get(t, h.ts, "/stats")
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if stats.Admission.Shed == 0 {
		t.Fatal("/stats admission.shed_requests is 0 after a shed")
	}

	// Both accepted queries — running and queued — complete once unblocked.
	h.release()
	for i := 0; i < 2; i++ {
		if err := <-h.results; err != nil {
			t.Fatalf("accepted query %d failed: %v", i, err)
		}
	}
}

// StartDrain must reject new queries with 503, flip /readyz to draining, let
// already-admitted queries finish, and leave /healthz (liveness) untouched.
func TestGracefulDrain(t *testing.T) {
	h := newOverloadHarness(t, 2, 0)
	h.hold()
	h.waitAdmission(t, 1, 0)

	h.srv.exec.StartDrain()
	resp := get(t, h.ts, "/topk?edge=3&k=2")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("query during drain: Retry-After %q, want \"1\"", ra)
	}
	var e wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error != mcn.ErrDraining.Error() {
		t.Fatalf("query during drain: error %q", e.Error)
	}

	var ready struct {
		Status string `json:"status"`
	}
	rz := get(t, h.ts, "/readyz")
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: status %d, want 503", rz.StatusCode)
	}
	if err := json.NewDecoder(rz.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if ready.Status != "draining" {
		t.Fatalf("/readyz during drain: status %q, want draining", ready.Status)
	}
	if hz := get(t, h.ts, "/healthz"); hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain: status %d, want 200", hz.StatusCode)
	} else {
		hz.Body.Close()
	}

	// The in-flight query was admitted before the drain: it must complete,
	// and DrainWait must then observe an idle executor.
	h.release()
	if err := <-h.results; err != nil {
		t.Fatalf("in-flight query dropped by drain: %v", err)
	}
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := h.srv.exec.DrainWait(dctx); err != nil {
		t.Fatalf("DrainWait: %v", err)
	}
	st := h.srv.exec.AdmissionStats()
	if !st.Draining || st.DrainRejected == 0 || st.Inflight != 0 {
		t.Fatalf("post-drain admission state: %+v", st)
	}
}

// timeout_ms must be validated on every query endpoint, not only the
// streaming skyline path.
func TestTimeoutParamAllEndpoints(t *testing.T) {
	h := newOverloadHarness(t, 2, 0)
	paths := []string{
		"/skyline?edge=3",
		"/skyline?edge=3&stream=1",
		"/topk?edge=3&k=2",
		"/nearest?edge=3&cost=0&k=1",
		"/within?edge=3&budget=50,50,50",
	}
	for _, p := range paths {
		bad := get(t, h.ts, p+"&timeout_ms=nope")
		if bad.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s&timeout_ms=nope: status %d, want 400", p, bad.StatusCode)
		}
		bad.Body.Close()
		ok := get(t, h.ts, p+"&timeout_ms=30000")
		if ok.StatusCode != http.StatusOK {
			t.Fatalf("GET %s&timeout_ms=30000: status %d, want 200", p, ok.StatusCode)
		}
		ok.Body.Close()
	}
}

// Soak at ~4x capacity: with the pending queue bounded, an accepted request
// waits for at most the slot-holder in front of it, so accepted-request
// latency stays within a small factor of the uncontended baseline while the
// excess load is shed with 503 — the opposite of unbounded queueing, where
// p99 grows with the backlog. The skyline queries themselves are far too
// fast (~0.2ms) to saturate a slot organically through ~2ms of HTTP
// overhead, so the load side runs in-process: each load query occupies its
// worker slot for a fixed 5ms via a sleeping stream callback, keeping the
// executor pinned at capacity for the whole probe run.
func TestOverloadSoakAcceptedLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	h := newOverloadHarness(t, 1, 1) // capacity: 1 running + 1 queued
	client := h.ts.Client()
	do := func() (time.Duration, int) {
		start := time.Now()
		resp, err := client.Get(h.ts.URL + "/skyline?edge=3")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return time.Since(start), resp.StatusCode
	}

	// Uncontended baseline: one request at a time, before any load starts.
	var base []time.Duration
	for i := 0; i < 50; i++ {
		d, code := do()
		if code != http.StatusOK {
			t.Fatalf("uncontended request got status %d", code)
		}
		base = append(base, d)
	}

	// Load: 4 in-process clients against a capacity of 2, each holding the
	// worker slot for 5ms per admitted query and backing off 1ms when shed.
	stop := make(chan struct{})
	var load sync.WaitGroup
	for c := 0; c < 4; c++ {
		load.Add(1)
		// Each client thinks for a staggered 1-4ms after every query,
		// shed or served. Aggregate demand (4 clients x 5ms holds over
		// 6-9ms cycles) stays well above the capacity of 2, but the think
		// time leaves slot-free windows, so the probe stream sees both
		// outcomes: accepted (a window) and shed (slots pinned).
		backoff := time.Duration(1+c) * time.Millisecond
		go func() {
			defer load.Done()
			req := mcn.SkylineRequest(mcn.Location{Edge: 3, T: 0.5})
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.srv.exec.StreamSkyline(ctx, req, func(mcn.Facility) bool {
					time.Sleep(5 * time.Millisecond)
					return false // bound the hold to one callback
				})
				time.Sleep(backoff)
			}
		}()
	}
	defer load.Wait()
	defer close(stop)

	// Probes: sequential requests against the saturated server — enough of
	// them that meeting neither a free slot nor a full queue is not a
	// realistic draw.
	const probes = 400
	var accepted []time.Duration
	var shed int
	for i := 0; i < probes; i++ {
		d, code := do()
		switch code {
		case http.StatusOK:
			accepted = append(accepted, d)
		case http.StatusServiceUnavailable:
			shed++
			// Back off like a client honouring the shed: a refusal takes
			// ~0.1 ms, so without a pause all the probes fit inside two or
			// three of the load's 5 ms holds and may never meet a free slot.
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("unexpected status %d under overload", code)
		}
	}

	if shed == 0 {
		t.Fatal("4x offered load produced no shedding")
	}
	if len(accepted) == 0 {
		t.Fatal("overload shed every single probe")
	}
	p99 := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[(len(ds)*99)/100]
	}
	basep99, overp99 := p99(base), p99(accepted)
	// The 2x bound is the design target; the absolute slack covers the 5ms
	// slot holds plus CI scheduling noise on sub-millisecond queries without
	// masking the failure mode this guards against (unbounded queueing shows
	// up as hundreds of milliseconds, not tens).
	limit := 2*basep99 + 100*time.Millisecond
	if overp99 > limit {
		t.Fatalf("accepted p99 under overload = %v, want <= %v (uncontended p99 %v; queue not bounded?)",
			overp99, limit, basep99)
	}
	t.Logf("uncontended p99 %v, overloaded accepted p99 %v, accepted %d shed %d of %d",
		basep99, overp99, len(accepted), shed, probes)
}
