package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcn"
	"mcn/internal/serve"
	"mcn/internal/storage"
	"mcn/internal/testsupport/memnet"
	"mcn/internal/wire"
)

// The faults a failure-test replica injects into a query it is asked.
const (
	faultNone     int32 = iota
	faultStorage        // every page read fails
	faultPanic          // every page read panics
	faultDeadline       // the request's deadline has passed
)

// trap is a storage device that fails or panics on every read while its
// mode says so.
type trap struct {
	storage.Device
	mode atomic.Int32
}

func (d *trap) ReadPage(id storage.PageID, buf []byte) error {
	switch d.mode.Load() {
	case faultStorage:
		return errors.New("device on fire")
	case faultPanic:
		panic("device on fire")
	}
	return d.Device.ReadPage(id, buf)
}

// expiring is a request context whose deadline passes when expire is
// called: Done closes, Err is DeadlineExceeded, and every context derived
// from it — the executor's — ends before expire returns, so the query's
// next interrupt poll sees it.
type expiring struct {
	context.Context
	mu    sync.Mutex
	done  chan struct{}
	after []func()
}

func (c *expiring) Done() <-chan struct{} { return c.done }

func (c *expiring) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// AfterFunc is what context.WithCancel and WithTimeout use to tie a child
// to a parent that is not one of the context package's own.
func (c *expiring) AfterFunc(f func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.after = append(c.after, f)
	return func() bool { return false }
}

func (c *expiring) expire() {
	c.mu.Lock()
	close(c.done)
	after := c.after
	c.mu.Unlock()
	for _, f := range after {
		f()
	}
}

// firstWrite runs arm once the response's first bytes are written: a fault
// that strikes a stream after its first NDJSON line.
type firstWrite struct {
	http.ResponseWriter
	once sync.Once
	arm  func()
}

func (w *firstWrite) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.once.Do(w.arm)
	return n, err
}

func (w *firstWrite) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// failReplica is one real serve replica of the failure test: a disk network
// over a trap device with no buffer pool (a panicking read strands no
// frame), behind a handler that counts the queries it is asked and injects
// the replica's fault into each.
type failReplica struct {
	url   string
	srv   *serve.Server
	h     http.Handler
	dev   *trap
	fault atomic.Int32
	// midStream delays the fault to the response's first byte.
	midStream atomic.Bool
	asked     atomic.Int64
}

func (rp *failReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rp.asked.Add(1)
	fault := rp.fault.Load()
	ctx := &expiring{Context: r.Context(), done: make(chan struct{})}
	rp.dev.mode.Store(faultNone)
	arm := func() {
		if fault == faultDeadline {
			ctx.expire()
		} else {
			rp.dev.mode.Store(fault)
		}
	}
	if rp.midStream.Load() {
		w = &firstWrite{ResponseWriter: w, arm: arm}
	} else {
		arm()
	}
	rp.h.ServeHTTP(w, r.WithContext(ctx))
}

// failCluster is a gateway over three failure-test replicas, on a clock the
// test advances past every cool-off.
type failCluster struct {
	replicas []*failReplica
	gw       *Gateway
	url      string
	clk      *fakeClock
}

func newFailCluster(t *testing.T, n *memnet.Network, img storage.Device) *failCluster {
	t.Helper()
	fc := &failCluster{clk: &fakeClock{t: time.Unix(1_700_000_000, 0)}}
	var urls []string
	for range 3 {
		dev := &trap{Device: img}
		db, err := mcn.OpenDeviceOptions(dev, 0, mcn.PoolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.New(db, serve.Config{Workers: 1, QueueDepth: 1, Timeout: time.Minute})
		rp := &failReplica{srv: srv, h: srv.Handler(), dev: dev}
		rp.url = n.Serve(rp)
		fc.replicas = append(fc.replicas, rp)
		urls = append(urls, rp.url)
	}
	fc.gw = newTestGateway(t, n, urls...)
	fc.gw.m.now = fc.clk.now
	fc.url = n.Serve(fc.gw.Handler())
	return fc
}

// asked returns how many queries the replicas were asked since the last
// call.
func (fc *failCluster) asked() int64 {
	var sum int64
	for _, rp := range fc.replicas {
		sum += rp.asked.Swap(0)
	}
	return sum
}

// failForm is one way of asking a query: a GET answered in JSON, a JSON
// body, an MCNB frame answered in MCNB, or a GET stream answered in NDJSON.
type failForm struct {
	name   string
	stream bool
	send   func(t *testing.T, c *http.Client, base string) (status int, hdr http.Header, msg string)
}

func failForms(q *wire.Request) []failForm {
	jsonBody, err := json.Marshal(q)
	if err != nil {
		panic(err)
	}
	frame, err := wire.EncodeRequest(q)
	if err != nil {
		panic(err)
	}
	jsonMsg := func(t *testing.T, body []byte) string {
		var e wire.Error
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("error body %q: %v", body, err)
		}
		return e.Error
	}
	return []failForm{
		{"GET", false, func(t *testing.T, c *http.Client, base string) (int, http.Header, string) {
			status, hdr, body := send(t, c, base, http.MethodGet, q.URI(), "", "", nil)
			return status, hdr, jsonMsg(t, body)
		}},
		{"JSON", false, func(t *testing.T, c *http.Client, base string) (int, http.Header, string) {
			status, hdr, body := send(t, c, base, http.MethodPost, "/v1/query", wire.ContentTypeJSON, "", jsonBody)
			return status, hdr, jsonMsg(t, body)
		}},
		{"MCNB", false, func(t *testing.T, c *http.Client, base string) (int, http.Header, string) {
			status, hdr, body := send(t, c, base, http.MethodPost, "/v1/query", wire.ContentTypeBinary, "", frame)
			resp := decodeBinaryBody(t, body)
			if resp.Status != status {
				t.Errorf("error frame says %d under HTTP %d", resp.Status, status)
			}
			return status, hdr, resp.Message
		}},
		// The NDJSON form: a failure before the first line is answered like
		// a buffered one, in JSON; one after it is the stream's in-band
		// error line, under the stream's 200.
		{"NDJSON", true, func(t *testing.T, c *http.Client, base string) (int, http.Header, string) {
			status, hdr, body := send(t, c, base, http.MethodGet, q.URI()+"&stream=1", "", "", nil)
			lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
			return status, hdr, jsonMsg(t, lines[len(lines)-1])
		}},
	}
}

// One failure table decides what every failure answers, on both tiers: per
// class, each form of one query — GET, JSON, MCNB, and the NDJSON stream —
// asked of a replica and through a gateway over three replicas that all
// fail alike, renders the class's status, Retry-After exactly when the
// class cools and its message, and the gateway asks exactly the replicas
// the table says (every replica for a retryable class, one otherwise) and
// cools exactly the ones it says. A retryable class's last answer is
// relayed, a cooling one's is the gateway's own shed. A deadline — one
// query whose deadline passes — leaves every replica available, and the
// next query answers 200.
//
// The unclassified class has no row: no request reaches it (every client
// rule is validate's, every storage error a fault), so TestClassifyError
// (internal/serve) renders it at the replica, and at the gateway it is a
// 500 like the storage and panic rows.
func TestFailureTable(t *testing.T) {
	if testing.Short() {
		t.Skip("uses full serve replicas; run without -short")
	}
	tg := newTestGrid(t)
	img, err := storage.BuildMem(tg.graph)
	if err != nil {
		t.Fatal(err)
	}
	n := newNet(t)
	c := n.Client()
	edges := tg.graph.NumEdges()

	rows := []struct {
		class  wire.Class
		query  *wire.Request
		status int
		msg    string // the replica's message
		asked  int    // replicas the gateway asks when all fail alike
		cools  bool   // the answer carries Retry-After, and the gateway cools
		// arm puts every replica into the row's failure.
		arm func(t *testing.T, fc *failCluster)
		// midStream: the failure can strike a stream after its first line.
		midStream bool
	}{
		{class: wire.ClassInvalid, query: &wire.Request{Kind: wire.KindSkyline, Edge: edges, T: 0.5},
			status: http.StatusBadRequest, msg: fmt.Sprintf("edge %d out of range (network has %d edges)", edges, edges), asked: 1,
			arm: func(*testing.T, *failCluster) {}},
		{class: wire.ClassShed, status: http.StatusServiceUnavailable, msg: mcn.ErrOverloaded.Error(), asked: 3, cools: true, arm: func(t *testing.T, fc *failCluster) {
			// One query holds each replica's worker and one waits: the
			// queue is full, and the next is shed.
			release := make(chan struct{})
			t.Cleanup(func() { close(release) })
			for _, rp := range fc.replicas {
				for range 2 {
					go rp.srv.Executor().Run(ctx, mcn.BatchRequest{}, func(context.Context) error {
						<-release
						return nil
					})
				}
				for a := rp.srv.Executor().AdmissionStats(); a.Inflight+a.Queued < 2; a = rp.srv.Executor().AdmissionStats() {
					time.Sleep(time.Millisecond)
				}
			}
		}},
		{class: wire.ClassDraining, status: http.StatusServiceUnavailable, msg: mcn.ErrDraining.Error(), asked: 3, cools: true, arm: func(_ *testing.T, fc *failCluster) {
			for _, rp := range fc.replicas {
				rp.srv.Executor().StartDrain()
			}
		}},
		{class: wire.ClassDeadline, status: http.StatusGatewayTimeout, msg: "deadline exceeded", asked: 1,
			arm: injecting(faultDeadline), midStream: true},
		{class: wire.ClassStorage, status: http.StatusInternalServerError, msg: "storage failure", asked: 3,
			arm: injecting(faultStorage), midStream: true},
		{class: wire.ClassPanic, status: http.StatusInternalServerError, msg: "internal query failure", asked: 3,
			arm: injecting(faultPanic), midStream: true},
	}
	for _, row := range rows {
		f := wire.Failures[row.class]
		t.Run(f.Outcome, func(t *testing.T) {
			if f.Status != row.status || f.Retryable != (row.asked > 1) || f.Cools != row.cools {
				t.Fatalf("wire.Failures has %+v; this row wants status %d, asking %d replicas, cools %v", f, row.status, row.asked, row.cools)
			}
			fc := newFailCluster(t, n, img)
			q := row.query
			if q == nil {
				q = &wire.Request{Kind: wire.KindSkyline, Edge: 17, T: 0.5}
			}
			row.arm(t, fc)
			for _, form := range failForms(q) {
				inBand := form.stream && row.midStream
				for _, rp := range fc.replicas {
					rp.midStream.Store(inBand)
				}
				check := func(tier string, wantStatus int, wantMsg string, retryAfter bool) {
					t.Helper()
					base := fc.replicas[0].url
					if tier == "gateway" {
						base = fc.url
					}
					status, hdr, msg := form.send(t, c, base)
					if inBand {
						wantStatus, retryAfter = http.StatusOK, false
					}
					if status != wantStatus || msg != wantMsg || (hdr.Get("Retry-After") != "") != retryAfter {
						t.Errorf("%s via %s: %d %q Retry-After %q, want %d %q (Retry-After: %v)",
							form.name, tier, status, msg, hdr.Get("Retry-After"), wantStatus, wantMsg, retryAfter)
					}
				}

				check("replica", row.status, row.msg, row.cools)
				fc.asked()
				fc.clk.advance(time.Minute) // past any cool-off of the last form

				// Through the gateway, every replica failing alike.
				wantAsked, wantAvailable := row.asked, 3
				status, msg := row.status, row.msg
				switch {
				case inBand: // a stream that started is relayed
					wantAsked = 1
				case row.cools:
					wantAvailable = 0
					status, msg = http.StatusServiceUnavailable, errNoBackend.Error()
				}
				check("gateway", status, msg, row.cools && !inBand)
				if got := fc.asked(); got != int64(wantAsked) {
					t.Errorf("%s via gateway: %d replicas asked, want %d", form.name, got, wantAsked)
				}
				if got := len(fc.gw.m.Available()); got != wantAvailable {
					t.Errorf("%s via gateway: %d of 3 replicas available afterwards, want %d", form.name, got, wantAvailable)
				}
			}

			// The failure gone, the next query — a different one — answers
			// 200: no class that does not cool has taken a replica out.
			if !row.cools {
				for _, rp := range fc.replicas {
					rp.fault.Store(faultNone)
					rp.midStream.Store(false)
				}
				if status, _, body := send(t, c, fc.url, http.MethodGet, "/skyline?edge=23&t=0.5", "", "", nil); status != http.StatusOK {
					t.Errorf("next query: %d %s, want 200", status, body)
				}
			}
		})
	}
}

// injecting arms every replica to inject fault into each query it is asked.
func injecting(fault int32) func(*testing.T, *failCluster) {
	return func(_ *testing.T, fc *failCluster) {
		for _, rp := range fc.replicas {
			rp.fault.Store(fault)
		}
	}
}
