package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mcn/internal/graph"
	"mcn/internal/wire"
)

// SoakConfig drives one sustained-load run against a /v1/query endpoint —
// a single mcnserve or an mcngateway; the generator itself is
// target-agnostic.
type SoakConfig struct {
	// BaseURL is the server under load (scheme://host:port).
	BaseURL string
	// Client is the HTTP client; nil builds one with a connection pool sized
	// for Clients persistent connections.
	Client *http.Client
	// Binary selects the request and response codec (application/x-mcn-frame
	// versus JSON).
	Binary bool
	// Clients is the number of concurrent senders.
	Clients int
	// Rate is the target arrival rate in requests/sec across all clients;
	// 0 runs a closed loop where each client fires as soon as its previous
	// answer lands.
	Rate float64
	// Duration is the measurement window.
	Duration time.Duration
	// Requests is the query mix, cycled in arrival order.
	Requests []*wire.Request
	// Warmup primes every distinct request once before the window opens
	// (connections, scratch pools, result-cache fills), so the histogram
	// measures steady state.
	Warmup bool
}

// SoakResult is one soak run's outcome.
type SoakResult struct {
	Completed   int64
	Errors      int64
	WallSeconds float64
	QPS         float64
	P50         time.Duration
	P99         time.Duration
	P999        time.Duration
	Hist        *Hist
}

// RunSoak drives the configured load and collects the latency histogram.
//
// With a positive Rate the loop is open: arrival n is scheduled at
// start + n/Rate regardless of how the server is coping, and each sample
// measures scheduled-to-done time. A slow server therefore shows its queueing
// delay in the tail quantiles instead of silently slowing the generator down
// (the coordinated-omission trap closed loops fall into). With Rate 0 the
// loop is closed and samples measure send-to-done time, which is the
// throughput-probing mode.
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("soak: no target URL")
	}
	if len(cfg.Requests) == 0 {
		return nil, fmt.Errorf("soak: no requests")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("soak: non-positive duration %v", cfg.Duration)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = cfg.Clients
		client = &http.Client{Transport: tr}
	}

	contentType := wire.ContentTypeJSON
	if cfg.Binary {
		contentType = wire.ContentTypeBinary
	}
	bodies := make([][]byte, len(cfg.Requests))
	for i, q := range cfg.Requests {
		var err error
		if cfg.Binary {
			bodies[i], err = wire.EncodeRequest(q)
		} else {
			bodies[i], err = json.Marshal(q)
		}
		if err != nil {
			return nil, fmt.Errorf("soak: encode request %d: %w", i, err)
		}
	}

	do := func(ctx context.Context, body []byte) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.BaseURL+"/v1/query", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Accept", contentType)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/query: status %d", resp.StatusCode)
		}
		return nil
	}

	if cfg.Warmup {
		// Concurrent warmup: one pass over the distinct mix, bounded by the
		// client count.
		sem := make(chan struct{}, cfg.Clients)
		warmErr := make([]error, len(bodies))
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				warmErr[i] = do(context.Background(), bodies[i])
				<-sem
			}(i)
		}
		wg.Wait()
		for _, err := range warmErr {
			if err != nil {
				return nil, fmt.Errorf("soak: warmup: %w", err)
			}
		}
	}

	var (
		hist      Hist
		seq       atomic.Int64
		completed atomic.Int64
		errCount  atomic.Int64
		errMu     sync.Mutex
		firstErr  error
	)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := seq.Add(1) - 1
				var sched time.Time
				if cfg.Rate > 0 {
					sched = start.Add(time.Duration(float64(n) / cfg.Rate * float64(time.Second)))
					if sched.After(deadline) {
						return
					}
					if d := time.Until(sched); d > 0 {
						t := time.NewTimer(d)
						select {
						case <-t.C:
						case <-ctx.Done():
							t.Stop()
							return
						}
					}
				} else {
					if time.Now().After(deadline) {
						return
					}
					sched = time.Now()
				}
				if err := do(ctx, bodies[n%int64(len(bodies))]); err != nil {
					if ctx.Err() != nil {
						return // the window closed mid-flight; not a failure
					}
					errCount.Add(1)
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					continue
				}
				hist.Record(time.Since(sched))
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	res := &SoakResult{
		Completed:   completed.Load(),
		Errors:      errCount.Load(),
		WallSeconds: wall,
		P50:         hist.Quantile(0.50),
		P99:         hist.Quantile(0.99),
		P999:        hist.Quantile(0.999),
		Hist:        &hist,
	}
	if wall > 0 {
		res.QPS = float64(res.Completed) / wall
	}
	if res.Completed == 0 && firstErr != nil {
		return res, fmt.Errorf("soak: no request completed: %w", firstErr)
	}
	if firstErr != nil {
		return res, fmt.Errorf("soak: %d of %d requests failed: %w",
			res.Errors, res.Errors+res.Completed, firstErr)
	}
	return res, nil
}

// soakMinRequests pads the distinct request mix so a result cache in front of
// the target holds a realistic working set rather than three entries.
const soakMinRequests = 96

// SoakRequests builds the query mix: skyline, top-k and k-nearest over the
// workload's query locations. Skylines carry the biggest payloads, so codec
// cost is visible; the mix stays free of period/multisource kinds so the same
// stream also drives a bare single node without a time-dependent network.
func SoakRequests(locs []graph.Location, w Workload) []*wire.Request {
	reqs := make([]*wire.Request, 0, soakMinRequests)
	for r := 0; len(reqs) < soakMinRequests; r++ {
		for i, q := range locs {
			if len(reqs) >= soakMinRequests {
				break
			}
			edge, t := int(q.Edge), q.T
			switch (i + r) % 3 {
			case 0:
				reqs = append(reqs, &wire.Request{Kind: wire.KindSkyline, Edge: edge, T: t})
			case 1:
				reqs = append(reqs, &wire.Request{Kind: wire.KindTopK, Edge: edge, T: t, K: 2 + r%4})
			default:
				reqs = append(reqs, &wire.Request{Kind: wire.KindNearest, Edge: edge, T: t, Cost: i % w.D, K: 1 + r%4})
			}
		}
	}
	return reqs
}

// SoakRow converts one soak run into a bench row.
func SoakRow(algo string, res *SoakResult) Row {
	row := Row{
		Algo:   algo,
		QPS:    res.QPS,
		P50MS:  float64(res.P50) / float64(time.Millisecond),
		P99MS:  float64(res.P99) / float64(time.Millisecond),
		P999MS: float64(res.P999) / float64(time.Millisecond),
	}
	if res.Completed > 0 {
		row.SimSeconds = res.WallSeconds / float64(res.Completed)
	}
	return row
}
