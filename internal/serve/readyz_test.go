package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mcn"
)

// fixedClock is a manually advanced time source for exercising the shed
// window without sleeping.
type fixedClock struct{ t time.Time }

func (c *fixedClock) now() time.Time          { return c.t }
func (c *fixedClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFixedClock() *fixedClock              { return &fixedClock{t: time.Unix(1_700_000_000, 0)} }
func readyStatus(t *testing.T, s *Server) int {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	return rec.Code
}

func newReadyzServer(t *testing.T, cfg Config) (*Server, *fixedClock) {
	t.Helper()
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 300, Facilities: 40, D: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(mcn.FromGraph(g), cfg)
	clk := newFixedClock()
	srv.now = clk.now
	return srv, clk
}

// A single shed — a brief burst — must NOT flip readiness under the default
// rate threshold; only a sustained shed storm above ShedRate does, and
// readiness recovers once the storm ages out of the window.
func TestReadyzShedRateThreshold(t *testing.T) {
	srv, clk := newReadyzServer(t, Config{Workers: 1, Timeout: time.Minute, ShedRate: 2, ShedWindow: 5 * time.Second})

	if got := readyStatus(t, srv); got != http.StatusOK {
		t.Fatalf("idle /readyz = %d, want 200", got)
	}

	// One shed: rate 0.2/s over the 5s window, far under the 2/s threshold.
	srv.noteShed(classify(mcn.ErrOverloaded))
	if got := readyStatus(t, srv); got != http.StatusOK {
		t.Fatalf("/readyz after a single shed = %d, want 200 (must not twitch)", got)
	}

	// A storm: 11 sheds this second pushes the rate to 2.2/s > 2/s.
	for i := 0; i < 10; i++ {
		srv.noteShed(classify(mcn.ErrOverloaded))
	}
	if got := readyStatus(t, srv); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during shed storm = %d, want 503", got)
	}

	// Mid-window the storm still counts…
	clk.advance(3 * time.Second)
	if got := readyStatus(t, srv); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz 3s after storm = %d, want 503 (still inside window)", got)
	}
	// …and once it ages past the window, readiness recovers.
	clk.advance(3 * time.Second)
	if got := readyStatus(t, srv); got != http.StatusOK {
		t.Fatalf("/readyz after window passed = %d, want 200 (must recover)", got)
	}
}

// Negative ShedRate restores the legacy twitchy behaviour: any shed inside
// the window reports unready.
func TestReadyzLegacyAnyShed(t *testing.T) {
	srv, clk := newReadyzServer(t, Config{Workers: 1, Timeout: time.Minute, ShedRate: -1, ShedWindow: 2 * time.Second})
	srv.noteShed(classify(mcn.ErrDraining))
	if got := readyStatus(t, srv); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after shed with ShedRate<0 = %d, want 503", got)
	}
	clk.advance(3 * time.Second)
	if got := readyStatus(t, srv); got != http.StatusOK {
		t.Fatalf("/readyz after window = %d, want 200", got)
	}
}

// Non-shed errors never count toward the shed rate.
func TestNoteShedIgnoresOtherErrors(t *testing.T) {
	srv, _ := newReadyzServer(t, Config{Workers: 1, Timeout: time.Minute, ShedRate: -1})
	srv.noteShed(classify(http.ErrServerClosed))
	if got := readyStatus(t, srv); got != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", got)
	}
}

// The tracker's per-second ring must reset stale buckets when a second
// index rolls around again (window length later), not double-count them.
func TestShedTrackerBucketReuse(t *testing.T) {
	tr := newShedTracker(3 * time.Second)
	base := time.Unix(1_700_000_000, 0)
	tr.note(base)
	tr.note(base)
	if r := tr.rate(base); r != 2.0/3 {
		t.Fatalf("rate = %v, want 2/3", r)
	}
	// Exactly one window later the same bucket index recurs: the old count
	// must be discarded, not added to.
	later := base.Add(3 * time.Second)
	tr.note(later)
	if r := tr.rate(later); r != 1.0/3 {
		t.Fatalf("rate after bucket reuse = %v, want 1/3", r)
	}
	// And far in the future the window is clean.
	if r := tr.rate(base.Add(time.Hour)); r != 0 {
		t.Fatalf("rate after an idle hour = %v, want 0", r)
	}
}
