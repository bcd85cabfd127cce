package bench

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcn/internal/wire"
)

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 { return h.n.Load() }

// Exact values in the linear region must round-trip through their bucket.
func TestHistLinearExact(t *testing.T) {
	var h Hist
	for us := 0; us < histSub; us++ {
		h.Record(time.Duration(us) * time.Microsecond)
	}
	if h.Count() != histSub {
		t.Fatalf("count = %d, want %d", h.Count(), histSub)
	}
	if got := h.Quantile(1); got != time.Duration(histSub-1)*time.Microsecond {
		t.Errorf("max quantile = %v, want %dµs", got, histSub-1)
	}
	if got := h.Quantile(1e-9); got != 0 {
		t.Errorf("min quantile = %v, want 0", got)
	}
}

// Bucket lower bounds must be monotonically non-decreasing and consistent
// with bucketIndex: every bucket's lower bound maps back to that bucket.
func TestHistBucketsConsistent(t *testing.T) {
	prev := time.Duration(-1)
	for i := 0; i < histBuckets; i++ {
		v := bucketValue(i)
		if v == math.MaxInt64 {
			// The top octaves saturate: no Duration-sized sample reaches them.
			if i < 1500 {
				t.Fatalf("bucket %d already saturated", i)
			}
			break
		}
		if v <= prev {
			t.Fatalf("bucket %d: lower bound %v not above previous %v", i, v, prev)
		}
		prev = v
		us := uint64(v / time.Microsecond)
		if got := bucketIndex(us); got != i {
			t.Fatalf("bucketIndex(bucketValue(%d)) = %d", i, got)
		}
	}
}

// Quantiles over random samples must stay within the histogram's designed
// relative error (1/histSub, plus the bucket-lower-bound bias).
func TestHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Hist
	samples := make([]time.Duration, 20_000)
	for i := range samples {
		// Log-uniform over 1µs .. ~16s to cross many octaves.
		us := math.Pow(2, rng.Float64()*24)
		samples[i] = time.Duration(us) * time.Microsecond
		h.Record(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)))-1]
		got := h.Quantile(q)
		lo := float64(exact) * (1 - 2.0/histSub)
		hi := float64(exact) * (1 + 2.0/histSub)
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("q=%g: got %v, exact %v (allowed %v..%v)",
				q, got, exact, time.Duration(lo), time.Duration(hi))
		}
	}
}

// RunSoak against a stub endpoint: both codecs must send the declared
// Content-Type, complete requests, and report consistent counters.
func TestRunSoakStub(t *testing.T) {
	var json32, bin32 atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query" || r.Method != http.MethodPost {
			http.Error(w, "wrong route", http.StatusNotFound)
			return
		}
		switch r.Header.Get("Content-Type") {
		case wire.ContentTypeJSON:
			json32.Add(1)
		case wire.ContentTypeBinary:
			bin32.Add(1)
		default:
			http.Error(w, "bad content type", http.StatusBadRequest)
			return
		}
		w.Write([]byte("{}")) //nolint:errcheck
	}))
	defer ts.Close()

	reqs := []*wire.Request{{Kind: wire.KindSkyline, Edge: 1, T: 0.5}}
	for _, binary := range []bool{false, true} {
		res, err := RunSoak(SoakConfig{
			BaseURL:  ts.URL,
			Binary:   binary,
			Clients:  2,
			Duration: 100 * time.Millisecond,
			Requests: reqs,
			Warmup:   true,
		})
		if err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		if res.Completed == 0 || res.Errors != 0 {
			t.Fatalf("binary=%v: completed=%d errors=%d", binary, res.Completed, res.Errors)
		}
		if res.QPS <= 0 || res.Hist.Count() != res.Completed {
			t.Fatalf("binary=%v: qps=%v hist=%d completed=%d",
				binary, res.QPS, res.Hist.Count(), res.Completed)
		}
		if res.P50 < 0 || res.P99 < res.P50 || res.P999 < res.P99 {
			t.Fatalf("binary=%v: quantiles out of order %v %v %v",
				binary, res.P50, res.P99, res.P999)
		}
	}
	if json32.Load() == 0 || bin32.Load() == 0 {
		t.Fatalf("codec counts json=%d binary=%d", json32.Load(), bin32.Load())
	}
}

// An open-loop run must pace arrivals near the configured rate rather than
// saturating the server.
func TestRunSoakOpenLoopPacing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}")) //nolint:errcheck
	}))
	defer ts.Close()
	res, err := RunSoak(SoakConfig{
		BaseURL:  ts.URL,
		Clients:  4,
		Rate:     200,
		Duration: 500 * time.Millisecond,
		Requests: []*wire.Request{{Kind: wire.KindSkyline, Edge: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 200 req/s over 0.5s schedules ~100 arrivals; a closed loop against this
	// no-op server would run tens of thousands.
	if res.Completed < 50 || res.Completed > 150 {
		t.Fatalf("completed = %d, want ~100 (open-loop pacing)", res.Completed)
	}
}

// Server-side failures surface as an error carrying the failure count.
func TestRunSoakReportsErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	res, err := RunSoak(SoakConfig{
		BaseURL:  ts.URL,
		Clients:  1,
		Duration: 50 * time.Millisecond,
		Requests: []*wire.Request{{Kind: wire.KindSkyline, Edge: 1}},
	})
	if err == nil {
		t.Fatal("want error from all-500 server")
	}
	if res == nil || res.Errors == 0 || res.Completed != 0 {
		t.Fatalf("res = %+v", res)
	}
	if !strings.Contains(err.Error(), "status 500") {
		t.Fatalf("err = %v", err)
	}
}
