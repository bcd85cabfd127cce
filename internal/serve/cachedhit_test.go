package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mcn"
)

// cachedHitPaths are the four static single-location kinds, each answered
// from the result cache once warmed.
var cachedHitPaths = []string{
	"/skyline?edge=17&t=0.25",
	"/topk?edge=17&t=0.25&k=5&weights=1,2,1",
	"/nearest?edge=17&t=0.25&cost=1&k=5",
	"/within?edge=17&t=0.25&budget=4,4,4",
}

// discardWriter is a ResponseWriter that keeps only the status, standing in
// for the connection so the handler's own cost is what is measured.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// cachedHitServer returns the handler of a cache-on server with every
// cachedHitPaths request warmed into the cache, and those requests.
func cachedHitServer(tb testing.TB) (http.Handler, []*http.Request) {
	tb.Helper()
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 1_200, Facilities: 200, D: 3, Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	net := mcn.FromGraph(g)
	net.EnableResultCache(mcn.CacheOptions{})
	h := New(net, Config{Workers: 2, Timeout: time.Minute}).Handler()
	reqs := make([]*http.Request, len(cachedHitPaths))
	for i, path := range cachedHitPaths {
		reqs[i] = httptest.NewRequest(http.MethodGet, path, nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, reqs[i])
		if w.status != http.StatusOK {
			tb.Fatalf("GET %s: status %d", path, w.status)
		}
	}
	if hits := net.ResultCache().Stats().Hits; hits != 0 {
		tb.Fatalf("warm-up hit the cache %d times, want 0", hits)
	}
	return h, reqs
}

// serveHit answers r from the cache into w, emptied of the last response's
// headers.
func serveHit(h http.Handler, w *discardWriter, r *http.Request) {
	clear(w.h)
	h.ServeHTTP(w, r)
}

// A cached GET hit — decode, cache probe, render — stays within its
// allocation budget, averaged over the four kinds.
func TestCachedHitAllocs(t *testing.T) {
	h, reqs := cachedHitServer(t)
	w := &discardWriter{h: http.Header{}}
	var total float64
	for _, r := range reqs {
		total += testing.AllocsPerRun(50, func() { serveHit(h, w, r) })
	}
	if mean := total / float64(len(reqs)); mean > 28 {
		t.Errorf("a cached hit allocates %.1f times on average, want ≤ 28", mean)
	}
}

// BenchmarkServeCachedHit times cached GET hits of the four static
// single-location kinds through Server.Handler(), round robin.
func BenchmarkServeCachedHit(b *testing.B) {
	h, reqs := cachedHitServer(b)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveHit(h, w, reqs[i%len(reqs)])
	}
}
