package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// load is one timed window of arrivals. With rate > 0 the loop is open:
// arrival n is due at start + n/rate however the system is coping, and its
// latency runs from that due time, so a stall shows up in the latencies of
// the arrivals queued behind it instead of silently slowing the generator
// down. With rate 0 the loop is closed: each of the senders issues its next
// request when the previous one has been answered. (The scheduler follows
// internal/bench's soak engine; it is copied so that the benchmark does not
// move when that package does.)
type load struct {
	senders int
	rate    float64
	// dur bounds the window in time, limit (when > 0) in arrivals; first is
	// the number of the first arrival, so that a later window continues the
	// sequence an earlier one began.
	dur   time.Duration
	limit int
	first int
	// send performs arrival n and returns when the answer was complete and
	// whether it was the expected one. It is called from the senders.
	send func(n int) (done time.Time, ok bool)
}

// loadResult is what a window measured. A wrong, failed or refused answer
// counts as failed and contributes no latency sample.
type loadResult struct {
	latMS     []float64 // ascending
	lateMS    []float64 // ascending; open loop only: how late each send began
	attempted int
	failed    int
	wall      time.Duration
	// seconds[i] holds the latencies (ascending) of the correct answers that
	// completed during second i of the window.
	seconds [][]float64
}

func (r loadResult) correct() int { return r.attempted - r.failed }

func (r loadResult) qps() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.correct()) / r.wall.Seconds()
}

// windowStats are the latency and throughput figures of a window.
type windowStats struct {
	p50MS, tailMS float64
	tailPct       float64 // which percentile tailMS is
	qps           float64
}

// stats summarises the window the way a dashboard does: every whole second
// yields a median, a tail percentile and a throughput, and the window reports
// the median second of each. One second in which the host stalls (they
// happen: a shared two-core machine) then costs one vote out of ten instead
// of owning the top percentile of the whole window. Windows shorter than
// three whole seconds are summarised in one piece.
func (r loadResult) stats() windowStats {
	whole := int(r.wall / time.Second)
	if whole < 3 {
		q := tailQuantile(len(r.latMS))
		return windowStats{percentile(r.latMS, 0.5), percentile(r.latMS, q), 100 * q, r.qps()}
	}
	var p50, tail, pct, qps []float64
	for i := 0; i < whole; i++ {
		var lat []float64 // none if nothing completed that second
		if i < len(r.seconds) {
			lat = r.seconds[i]
		}
		q := tailQuantile(len(lat))
		p50 = append(p50, percentile(lat, 0.5))
		tail = append(tail, percentile(lat, q))
		pct = append(pct, 100*q)
		qps = append(qps, float64(len(lat)))
	}
	return windowStats{median(p50), median(tail), median(pct), median(qps)}
}

func (l load) run() loadResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  loadResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(l.dur)
	if l.dur <= 0 {
		deadline = start.Add(time.Hour)
	}
	for s := 0; s < l.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, late []float64
			var at []time.Duration // when each latency sample completed
			attempted, failed := 0, 0
			for {
				n := int(next.Add(1) - 1)
				due := time.Now()
				if l.rate > 0 {
					due = start.Add(time.Duration(float64(n) / l.rate * float64(time.Second)))
				}
				if !due.Before(deadline) || (l.limit > 0 && n >= l.limit) {
					break
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				if l.rate > 0 {
					late = append(late, msBetween(due, time.Now()))
				}
				attempted++
				done, ok := l.send(l.first + n)
				if !ok {
					failed++
					continue
				}
				lat = append(lat, msBetween(due, done))
				at = append(at, done.Sub(start))
			}
			mu.Lock()
			for i, ms := range lat {
				sec := int(at[i] / time.Second)
				for len(res.seconds) <= sec {
					res.seconds = append(res.seconds, nil)
				}
				res.seconds[sec] = append(res.seconds[sec], ms)
			}
			res.latMS = append(res.latMS, lat...)
			res.lateMS = append(res.lateMS, late...)
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	sort.Float64s(res.latMS)
	sort.Float64s(res.lateMS)
	for _, sec := range res.seconds {
		sort.Float64s(sec)
	}
	return res
}

func msBetween(a, b time.Time) float64 {
	if b.Before(a) {
		return 0
	}
	return float64(b.Sub(a)) / float64(time.Millisecond)
}

// httpTarget is a server under load, reached over at most conns connections.
type httpTarget struct {
	base   string
	client *http.Client
}

func newHTTPTarget(base string, conns int) *httpTarget {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &httpTarget{base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

// do sends p and returns the response body once it has been read in full.
func (t *httpTarget) do(p *prepared) (body []byte, done time.Time, err error) {
	var rd io.Reader
	if p.body != nil {
		rd = bytes.NewReader(p.body)
	}
	req, err := http.NewRequest(p.method, t.base+p.path, rd)
	if err != nil {
		return nil, time.Now(), err
	}
	if p.ctype != "" {
		req.Header.Set("Content-Type", p.ctype)
		req.Header.Set("Accept", p.ctype)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, time.Now(), err
	}
	body, err = io.ReadAll(resp.Body)
	done = time.Now()
	resp.Body.Close()
	if err != nil {
		return nil, done, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, done, fmt.Errorf("%s %s: status %d: %.200s", p.method, p.path, resp.StatusCode, body)
	}
	return body, done, nil
}

// get fetches a small JSON document (readiness, stats).
func (t *httpTarget) get(path string) ([]byte, int, error) {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}
