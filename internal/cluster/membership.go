// Package cluster implements the multi-node serving tier in front of
// replicated mcnserve backends: static membership with /readyz health
// probing, routing by consistent hashing on the canonicalized query key for
// result-cache affinity, and overload-aware failover that honours 503 +
// Retry-After.
//
// The tier assumes replicated backends: every replica serves the full
// network, so any available one answers any query — multi-source and period
// sweeps included — and the gateway sends each query to exactly one replica
// and relays its response verbatim, byte-identical to asking that replica
// directly.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Backend is one mcnserve replica: its base URL plus the gateway's live view
// of its health and load. All state is atomic — the proxy path reads it
// lock-free on every request.
type Backend struct {
	url string

	// healthy is flipped false by transport failures (connection refused,
	// reset) and true again only by a successful /readyz probe.
	healthy atomic.Bool
	// coolUntil is the UnixNano until which the backend is cooling off after
	// a 503 (Retry-After honoured); zero means not cooling. A cooling
	// backend is alive but saturated or draining — don't send work, don't
	// mark it dead.
	coolUntil atomic.Int64

	inflight atomic.Int64
	proxied  atomic.Int64
	failures atomic.Int64
}

// URL returns the backend's base URL.
func (b *Backend) URL() string { return b.url }

// markDown records a transport-level failure: the backend is unreachable
// until a probe succeeds.
func (b *Backend) markDown() {
	b.healthy.Store(false)
	b.failures.Add(1)
}

// cool takes the backend out of rotation for d (a 503's Retry-After) without
// marking it unhealthy.
func (b *Backend) cool(now time.Time, d time.Duration) {
	b.coolUntil.Store(now.Add(d).UnixNano())
}

// available reports whether the backend should receive traffic at time now.
func (b *Backend) available(now time.Time) bool {
	if !b.healthy.Load() {
		return false
	}
	if cu := b.coolUntil.Load(); cu != 0 && now.UnixNano() < cu {
		return false
	}
	return true
}

// Membership is the static backend set with its health state. Backends never
// join or leave at runtime (gossip is a later PR); they only move between
// available and unavailable.
type Membership struct {
	backends []*Backend
	// client sends the probes. Its transport is the one the gateway proxies
	// through too: one connection pool per gateway, and one RoundTripper
	// for a test to swap.
	client  *http.Client
	timeout time.Duration
	// retryAfterClamped counts Retry-After hints capped at MaxRetryAfter —
	// a non-zero value fingers a replica advertising absurd cool-offs.
	retryAfterClamped atomic.Int64
	// now is the clock, swappable by tests exercising cool-off windows.
	now func() time.Time
}

// MaxRetryAfter caps how long one 503's Retry-After may cool a backend. A
// misconfigured replica advertising hours would otherwise take itself out of
// rotation for that long on a single response; past this ceiling the next
// probe or request re-evaluates instead.
const MaxRetryAfter = 30 * time.Second

// DefaultProbeTimeout bounds one /readyz probe.
const DefaultProbeTimeout = 500 * time.Millisecond

// NewMembership builds the membership from backend base URLs (scheme +
// host[:port], e.g. "http://10.0.0.3:8080"). Backends start optimistically
// available; probes and per-request failures adjust from there.
func NewMembership(urls []string, probeTimeout time.Duration) (*Membership, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("cluster: no backends")
	}
	if probeTimeout <= 0 {
		probeTimeout = DefaultProbeTimeout
	}
	// The default transport keeps only 2 idle connections per host; a
	// gateway funnels every client through a handful of backends, so raise
	// the pool or concurrent traffic churns through fresh connections.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	m := &Membership{
		backends: make([]*Backend, 0, len(urls)),
		client:   &http.Client{Transport: tr},
		timeout:  probeTimeout,
		now:      time.Now,
	}
	seen := make(map[string]bool, len(urls))
	for _, raw := range urls {
		raw = strings.TrimRight(strings.TrimSpace(raw), "/")
		if raw == "" {
			continue
		}
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: invalid backend url %q (want scheme://host[:port])", raw)
		}
		if u.Path != "" || u.RawQuery != "" {
			return nil, fmt.Errorf("cluster: backend url %q must not carry a path or query", raw)
		}
		if seen[raw] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", raw)
		}
		seen[raw] = true
		b := &Backend{url: raw}
		b.healthy.Store(true)
		m.backends = append(m.backends, b)
	}
	if len(m.backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends")
	}
	return m, nil
}

// Backends returns all members, available or not, in configuration order.
func (m *Membership) Backends() []*Backend { return m.backends }

// Available returns the members currently eligible for traffic, in
// configuration order.
func (m *Membership) Available() []*Backend {
	now := m.now()
	out := make([]*Backend, 0, len(m.backends))
	for _, b := range m.backends {
		if b.available(now) {
			out = append(out, b)
		}
	}
	return out
}

// ProbeAll probes every backend's /readyz once, concurrently: 200 marks it
// healthy (and clears any cool-off), 503 cools it for the advertised
// Retry-After, and a transport error marks it down. This is both the
// periodic refresh (Start) and the recovery path for backends that were
// marked down by failed requests.
func (m *Membership) ProbeAll(ctx context.Context) {
	done := make(chan struct{}, len(m.backends))
	for _, b := range m.backends {
		go func(b *Backend) {
			defer func() { done <- struct{}{} }()
			m.probe(ctx, b)
		}(b)
	}
	for range m.backends {
		<-done
	}
}

func (m *Membership) probe(ctx context.Context, b *Backend) {
	pctx, cancel := context.WithTimeout(ctx, m.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		b.markDown()
		return
	}
	resp, err := m.client.Do(req)
	if err != nil {
		// A probe cut short because the caller stopped probing says nothing
		// about the backend; one that hit its own timeout does.
		if ctx.Err() == nil {
			b.markDown()
		}
		return
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		b.healthy.Store(true)
		b.coolUntil.Store(0)
	case http.StatusServiceUnavailable:
		// The replica is alive (it answered) but asks for no traffic:
		// draining or shedding. Honour its Retry-After; keep it healthy so
		// recovery needs no transport-level evidence.
		b.healthy.Store(true)
		b.cool(m.now(), m.retryAfter(resp, time.Second))
	default:
		b.markDown()
	}
}

// Start runs ProbeAll every interval until ctx is done. Run it in a
// goroutine; the first probe round fires immediately.
func (m *Membership) Start(ctx context.Context, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		m.ProbeAll(ctx)
		select {
		case <-tick.C:
		case <-ctx.Done():
			return
		}
	}
}

// RetryAfterClamped returns how many Retry-After hints have been clamped to
// MaxRetryAfter, for /stats.
func (m *Membership) RetryAfterClamped() int64 { return m.retryAfterClamped.Load() }

// retryAfter reads a response's Retry-After seconds — default for absent or
// malformed values — clamped to MaxRetryAfter, counting clamps.
func (m *Membership) retryAfter(resp *http.Response, def time.Duration) time.Duration {
	d := retryAfterDuration(resp, def)
	if d > MaxRetryAfter {
		m.retryAfterClamped.Add(1)
		return MaxRetryAfter
	}
	return d
}

// retryAfterDuration reads a response's Retry-After seconds, with a default
// for absent or malformed values.
func retryAfterDuration(resp *http.Response, def time.Duration) time.Duration {
	raw := resp.Header.Get("Retry-After")
	if raw == "" {
		return def
	}
	secs, err := strconv.Atoi(raw)
	if err != nil || secs < 0 {
		return def
	}
	return time.Duration(secs) * time.Second
}
