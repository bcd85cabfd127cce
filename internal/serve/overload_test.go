package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"mcn"
	"mcn/internal/wire"
)

// overloadHarness is a server over a small synthetic network, with its
// period routes, and the given admission bounds, plus a gate for holding
// worker slots: each call to hold() runs a query whose body blocks until
// release().
type overloadHarness struct {
	srv     *Server
	ts      *testServer
	gate    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	results chan error
}

func newOverloadHarness(t *testing.T, workers, queueDepth int) *overloadHarness {
	t.Helper()
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 600, Facilities: 120, D: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tnet := mcn.TimeDependent(g)
	if err := mcn.AttachSyntheticProfiles(tnet, 300, 5); err != nil {
		t.Fatal(err)
	}
	h := &overloadHarness{
		// ShedRate -1 restores the any-shed-flips-readiness behaviour: these
		// tests assert the overload machinery itself, and a single deliberate
		// shed must be visible on /readyz without manufacturing a storm (the
		// rate-threshold default has its own tests in readyz_test.go).
		srv:     New(mcn.FromGraph(g), Config{Workers: workers, Timeout: time.Minute, QueueDepth: queueDepth, ShedRate: -1, TimeNet: tnet}),
		gate:    make(chan struct{}),
		results: make(chan error, 16),
	}
	h.ts = newTestServer(t, h.srv.Handler())
	t.Cleanup(func() {
		h.release() // a failed test must not strand its holders
		h.wg.Wait()
	})
	return h
}

// hold occupies one executor slot (or queue position) with a query that
// cannot progress until release.
func (h *overloadHarness) hold() {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.results <- h.srv.exec.Run(ctx, mcn.BatchRequest{}, func(context.Context) error {
			<-h.gate
			return nil
		}).Err
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

func (h *overloadHarness) release() { h.once.Do(func() { close(h.gate) }) }

func get(t *testing.T, ts *testServer, path string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// overloadProbe is one query, sent the way a client sends it; send returns
// the response, its body read, and the body with its latency zeroed.
type overloadProbe struct {
	name string
	send func(t *testing.T, ts *testServer) (resp *http.Response, body []byte)
}

// overloadProbes reach the executor every way a query can: buffered, as an
// NDJSON stream, and as a period sweep over GET and over an MCNB POST.
var overloadProbes = []overloadProbe{
	{"GET skyline", getProbe("/skyline?edge=3")},
	{"GET skyline stream", getProbe("/skyline?edge=3&stream=1")},
	{"GET skyline/period", getProbe("/skyline/period?edge=3&from=5&to=11")},
	{"POST MCNB topk/period", func(t *testing.T, ts *testServer) (*http.Response, []byte) {
		frame, err := wire.EncodeRequest(&wire.Request{Kind: wire.KindTopKPeriod, Edge: 3, T: 0.5, K: 2, From: 5, To: 11})
		if err != nil {
			t.Fatal(err)
		}
		resp, raw := postQuery(t, ts, frame, wire.ContentTypeBinary, "")
		if resp.StatusCode == http.StatusOK {
			period := decodeBinaryResponse(t, raw).Period
			period.LatencyMS = 0
			if raw, err = wire.EncodePeriodResult(period); err != nil {
				t.Fatal(err)
			}
		}
		return resp, raw
	}},
}

func getProbe(path string) func(*testing.T, *testServer) (*http.Response, []byte) {
	return func(t *testing.T, ts *testServer) (*http.Response, []byte) {
		resp := get(t, ts, path)
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, latencyField.ReplaceAllLiteral(raw, []byte(`"latency_ms":0`))
	}
}

// With the single worker held and the one queue slot occupied, every query
// — buffered, streamed or a period sweep — must be shed with 503 +
// Retry-After instead of queuing without bound, and every accepted query
// must still complete. Once the worker is free each answers as an idle
// server does, and the executor counts every query it answered, which
// /healthz reports as queries_total.
func TestOverloadSheds503(t *testing.T) {
	h := newOverloadHarness(t, 1, 1)
	idle := make([][]byte, len(overloadProbes))
	for i, p := range overloadProbes {
		resp, body := p.send(t, h.ts)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on an idle server: status %d: %s", p.name, resp.StatusCode, body)
		}
		idle[i] = body
	}

	h.hold() // occupies the worker
	h.hold() // occupies the queue slot
	h.waitAdmission(t, 1, 1)

	for _, p := range overloadProbes {
		resp, body := p.send(t, h.ts)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s overloaded: status %d, want 503", p.name, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Fatalf("%s overloaded: Retry-After %q, want \"1\"", p.name, ra)
		}
		msg := ""
		if resp.Header.Get("Content-Type") == wire.ContentTypeBinary {
			msg = decodeBinaryResponse(t, body).Message
		} else {
			var e wire.Error
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("%s overloaded: %v in %q", p.name, err, body)
			}
			msg = e.Error
		}
		if msg != mcn.ErrOverloaded.Error() {
			t.Fatalf("%s overloaded: error %q", p.name, msg)
		}
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

	// The sheds show up in /stats.
	var stats struct {
		Completed int64              `json:"completed"`
		Admission mcn.AdmissionStats `json:"admission"`
	}
	getJSON(t, h.ts, "/stats", http.StatusOK, &stats)
	if stats.Admission.Shed != int64(len(overloadProbes)) {
		t.Fatalf("/stats admission.shed_requests = %d after %d sheds", stats.Admission.Shed, len(overloadProbes))
	}

	// Both accepted queries — running and queued — complete once unblocked.
	h.release()
	for i := 0; i < 2; i++ {
		if err := <-h.results; err != nil {
			t.Fatalf("accepted query %d failed: %v", i, err)
		}
	}
	for i, p := range overloadProbes {
		if resp, body := p.send(t, h.ts); resp.StatusCode != http.StatusOK || !bytes.Equal(body, idle[i]) {
			t.Fatalf("%s after the overload: status %d\n%s\nidle server:\n%s", p.name, resp.StatusCode, body, idle[i])
		}
	}
	var health struct {
		Queries int64 `json:"queries_total"`
	}
	getJSON(t, h.ts, "/stats", http.StatusOK, &stats)
	getJSON(t, h.ts, "/healthz", http.StatusOK, &health)
	if want := int64(2*len(overloadProbes) + 2); stats.Completed != want || health.Queries != want {
		t.Fatalf("/stats completed = %d, /healthz queries_total = %d, want %d", stats.Completed, health.Queries, want)
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
		if got := h.ts.status(t, p+"&timeout_ms=nope"); got != http.StatusBadRequest {
			t.Fatalf("GET %s&timeout_ms=nope: status %d, want 400", p, got)
		}
		if got := h.ts.status(t, p+"&timeout_ms=30000"); got != http.StatusOK {
			t.Fatalf("GET %s&timeout_ms=30000: status %d, want 200", p, got)
		}
	}
}

// Overload at twice capacity, round by round: an accepted request waits for
// at most the slot-holder in front of it, and the excess is shed with 503 at
// once — the opposite of unbounded queueing, where waits grow with the
// backlog. Each round, four in-process load clients meet a capacity of two
// (one running, one queued). Two of them hold what they get until the test
// releases them, so every step is driven by gates, not by timing:
//
//   - with the worker held and the queue full, the other two load clients
//     and an HTTP probe are shed at once (the probe with 503 +
//     Retry-After: 1);
//   - an admitted HTTP probe waits behind exactly the one holder in front of
//     it: it is still waiting while that hold lasts, and completes once it
//     is released.
func TestOverloadSoakAcceptedLatency(t *testing.T) {
	h := newOverloadHarness(t, 1, 1) // capacity: 1 running + 1 queued
	req := mcn.SkylineRequest(mcn.Location{Edge: 3, T: 0.5})
	probe := func() (int, string, error) {
		resp, err := h.ts.Client().Get(h.ts.URL + "/skyline?edge=3")
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get("Retry-After"), err
	}
	// The load clients past capacity will not wait: their context is already
	// done, so admission decides at once. Past the queue bound that is
	// ErrOverloaded; one queued past it would abort with the context's error.
	impatient, cancel := context.WithCancel(ctx)
	cancel()

	for round := 0; round < 5; round++ {
		var gates [2]chan struct{}
		var once [2]sync.Once
		release := func(c int) { once[c].Do(func() { close(gates[c]) }) }
		entered := make(chan int, len(gates))
		outcome := make(chan error, len(gates))
		for c := range gates {
			gates[c] = make(chan struct{})
			defer release(c) // a failed round must not strand its holders
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				outcome <- h.srv.exec.Run(ctx, req, func(context.Context) error {
					entered <- c
					<-gates[c]
					return nil
				}).Err
			}()
		}
		running := <-entered
		h.waitAdmission(t, 1, 1)

		for c := 0; c < 2; c++ {
			if err := h.srv.exec.Run(impatient, req, func(context.Context) error { return nil }).Err; !errors.Is(err, mcn.ErrOverloaded) {
				t.Fatalf("round %d: a load client past capacity got %v, want ErrOverloaded", round, err)
			}
		}
		if code, ra, err := probe(); err != nil || code != http.StatusServiceUnavailable || ra != "1" {
			t.Fatalf("round %d: probe against a held worker and a full queue: %d, Retry-After %q (%v); want 503, \"1\"", round, code, ra, err)
		}

		// The holder goes; the queued one takes the worker.
		release(running)
		if err := <-outcome; err != nil {
			t.Fatalf("round %d: released holder failed: %v", round, err)
		}
		running = <-entered

		done := make(chan error, 1)
		go func() {
			code, _, err := probe()
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d, want 200", code)
			}
			done <- err
		}()
		h.waitAdmission(t, 1, 1)
		select {
		case err := <-done:
			t.Fatalf("round %d: admitted probe finished (%v) while the holder in front of it still held the worker", round, err)
		default:
		}
		release(running)
		if err := <-outcome; err != nil {
			t.Fatalf("round %d: released holder failed: %v", round, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("round %d: admitted probe: %v", round, err)
		}
	}
}
