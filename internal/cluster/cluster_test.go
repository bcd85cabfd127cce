package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

var ctx = context.Background()

// fakeClock drives Membership.now without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestNewMembershipValidation(t *testing.T) {
	cases := []struct {
		name string
		urls []string
	}{
		{"empty", nil},
		{"blank", []string{" ", ""}},
		{"no scheme", []string{"10.0.0.1:8080"}},
		{"path", []string{"http://h:1/api"}},
		{"query", []string{"http://h:1?x=1"}},
		{"duplicate", []string{"http://h:1", "http://h:1/"}},
	}
	for _, tc := range cases {
		if _, err := NewMembership(tc.urls, 0); err == nil {
			t.Errorf("%s: NewMembership(%v) succeeded, want error", tc.name, tc.urls)
		}
	}
	m, err := NewMembership([]string{"http://h:1/", " http://h:2 "}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Backends()[0].URL(); got != "http://h:1" {
		t.Fatalf("normalized URL = %q, want trailing slash stripped", got)
	}
	if n := len(m.Available()); n != 2 {
		t.Fatalf("fresh membership has %d available, want 2 (optimistic start)", n)
	}
}

func TestProbeAllHealthCycle(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ready.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Retry-After", "60")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer flappy.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()

	m, err := NewMembership([]string{flappy.URL, dead.URL}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	m.now = clk.now

	m.ProbeAll(ctx)
	if av := m.Available(); len(av) != 1 || av[0].URL() != flappy.URL {
		t.Fatalf("after probe: available = %v, want just the live backend", urls(av))
	}

	// The live backend starts shedding: cooled for its Retry-After, but not
	// marked dead.
	ready.Store(false)
	m.ProbeAll(ctx)
	if av := m.Available(); len(av) != 0 {
		t.Fatalf("available while shedding = %v, want none", urls(av))
	}
	if !m.Backends()[0].healthy.Load() {
		t.Fatal("503 marked the backend unhealthy; want cooled but healthy")
	}

	// The cool-off expires on its own — no probe needed for recovery.
	clk.advance(61 * time.Second)
	if av := m.Available(); len(av) != 1 {
		t.Fatalf("available after cool-off = %v, want the shedding backend back", urls(av))
	}

	// A dead backend stays down across probes until one succeeds.
	m.ProbeAll(ctx)
	for _, b := range m.Backends() {
		if b.URL() == dead.URL && b.available(clk.now()) {
			t.Fatal("dead backend reported available after failed probe")
		}
	}
}

func urls(bs []*Backend) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.URL()
	}
	return out
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy("hash"); err != nil || p != PolicyHash {
		t.Fatalf("ParsePolicy(hash) = %v, %v", p, err)
	}
	if p, err := ParsePolicy("least-inflight"); err != nil || p != PolicyLeastInflight {
		t.Fatalf("ParsePolicy(least-inflight) = %v, %v", p, err)
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Fatal("ParsePolicy(random) succeeded, want error")
	}
}

func TestRouterHashAffinity(t *testing.T) {
	m, err := NewMembership([]string{"http://h:1", "http://h:2", "http://h:3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(m, PolicyHash)
	avail := m.Available()

	primaries := map[string]bool{}
	for _, key := range []string{
		"/skyline?edge=1&t=0.5", "/skyline?edge=2&t=0.5", "/topk?edge=3&k=4&t=0.1",
		"/nearest?cost=0&edge=9&k=2&t=0.9", "/within?budget=1,2&edge=40&t=0.3",
		"/skyline?edge=100&t=0.5", "/topk?edge=77&k=1&t=0.25",
	} {
		c1 := r.Candidates(key, avail)
		c2 := r.Candidates(key, avail)
		if len(c1) != len(avail) {
			t.Fatalf("Candidates(%q) returned %d backends, want all %d", key, len(c1), len(avail))
		}
		seen := map[*Backend]bool{}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("Candidates(%q) not deterministic", key)
			}
			if seen[c1[i]] {
				t.Fatalf("Candidates(%q) repeats a backend", key)
			}
			seen[c1[i]] = true
		}
		primaries[c1[0].URL()] = true
	}
	if len(primaries) < 2 {
		t.Fatalf("all keys hashed to one primary %v; ring is not spreading", primaries)
	}

	// Removing a backend from the available set must not reshuffle the
	// others' relative order (consistent hashing's point).
	key := "/skyline?edge=1&t=0.5"
	full := r.Candidates(key, avail)
	without := r.Candidates(key, []*Backend{full[0], full[2]})
	if len(without) != 2 || without[0] != full[0] || without[1] != full[2] {
		t.Fatal("dropping one backend reshuffled the ring order of the rest")
	}
}

func TestRouterLeastInflight(t *testing.T) {
	m, err := NewMembership([]string{"http://h:1", "http://h:2", "http://h:3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	bs := m.Backends()
	bs[0].inflight.Store(5)
	bs[1].inflight.Store(0)
	bs[2].inflight.Store(2)
	r := NewRouter(m, PolicyLeastInflight)
	got := r.Candidates("any", m.Available())
	if got[0] != bs[1] || got[1] != bs[2] || got[2] != bs[0] {
		t.Fatalf("least-inflight order = %v, want h:2, h:3, h:1", urls(got))
	}
}

func TestPolicyString(t *testing.T) {
	if got := PolicyHash.String(); got != "hash" {
		t.Errorf("PolicyHash = %q", got)
	}
	if got := PolicyLeastInflight.String(); got != "least-inflight" {
		t.Errorf("PolicyLeastInflight = %q", got)
	}
	if got := Policy(42).String(); got != "policy(42)" {
		t.Errorf("unknown policy = %q", got)
	}
	m, err := NewMembership([]string{"http://h:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(m, PolicyLeastInflight)
	if r.Policy() != PolicyLeastInflight {
		t.Errorf("Router.Policy = %v", r.Policy())
	}
}

// Start must probe immediately, keep probing on the interval, and stop when
// its context ends.
// Stopping the probe loop while a probe is in flight must not mark the
// backend down: the cancelled request is the loop's doing, not the backend's.
// A probe that hits its own timeout still does.
func TestMembershipStopMidProbeKeepsBackend(t *testing.T) {
	entered := make(chan struct{}, 1)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-r.Context().Done() // answers only once the prober gives up
	}))
	defer backend.Close()

	m, err := NewMembership([]string{backend.URL}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	loopCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		m.Start(loopCtx, time.Hour)
		close(done)
	}()
	<-entered
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Start did not return after ctx cancel")
	}
	if n := len(m.Available()); n != 1 {
		t.Fatalf("after stopping the loop mid-probe: available = %d, want 1", n)
	}

	timedOut, err := NewMembership([]string{backend.URL}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	timedOut.ProbeAll(ctx)
	if n := len(timedOut.Available()); n != 0 {
		t.Fatalf("after a probe timeout: available = %d, want 0", n)
	}
}

func TestMembershipStartLoop(t *testing.T) {
	var probes atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()

	m, err := NewMembership([]string{backend.URL}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	loopCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		m.Start(loopCtx, 5*time.Millisecond)
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for probes.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("saw %d probes, want the loop to re-fire", probes.Load())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Start did not return after ctx cancel")
	}
	if n := len(m.Available()); n != 1 {
		t.Fatalf("available = %d, want 1", n)
	}
}
