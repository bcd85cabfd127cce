package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mcn"
	"mcn/internal/wire"
)

var ctx = context.Background()

// testServers returns handlers over in-memory and disk-resident views of one
// synthetic network, plus the network for computing reference answers.
func testServers(t *testing.T) (map[string]http.Handler, *mcn.Network) {
	t.Helper()
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 1_200, Facilities: 200, D: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "serve.mcn")
	if err := mcn.CreateDatabase(g, path); err != nil {
		t.Fatal(err)
	}
	db, err := mcn.OpenDatabaseOptions(path, 0.05, mcn.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mem := mcn.FromGraph(g)
	return map[string]http.Handler{
		"memory": New(mem, Config{Workers: 8, Timeout: time.Minute}).Handler(),
		"disk":   New(db, Config{Workers: 8, Timeout: time.Minute}).Handler(),
	}, mem
}

func getJSON(t *testing.T, ts *httptest.Server, path string, status int, out any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", path, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

// libIDs returns the facility ids of a library result in order.
func libIDs(res *mcn.Result) []mcn.FacilityID {
	out := make([]mcn.FacilityID, len(res.Facilities))
	for i, f := range res.Facilities {
		out[i] = f.ID
	}
	return out
}

func resultIDs(res wire.Result) []mcn.FacilityID {
	out := make([]mcn.FacilityID, len(res.Facilities))
	for i, f := range res.Facilities {
		out[i] = f.ID
	}
	return out
}

// Every query endpoint must answer with the same facilities the library
// returns directly, over both backends.
func TestEndpointsMatchLibrary(t *testing.T) {
	handlers, ref := testServers(t)
	loc := mcn.Location{Edge: 17, T: 0.25}
	agg := mcn.WeightedSum(1, 1, 1)

	wantSky, err := ref.Skyline(ctx, loc, mcn.WithEngine(mcn.CEA))
	if err != nil {
		t.Fatal(err)
	}
	wantTop, err := ref.TopK(ctx, loc, agg, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantNear, err := ref.Nearest(ctx, loc, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantWithin, err := ref.Within(ctx, loc, mcn.Of(200, 200, 200))
	if err != nil {
		t.Fatal(err)
	}

	for name, h := range handlers {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(h)
			defer ts.Close()

			var sky wire.Result
			getJSON(t, ts, "/skyline?edge=17&t=0.25", http.StatusOK, &sky)
			if sky.Query != "skyline" || sky.Count != len(wantSky.Facilities) {
				t.Errorf("skyline count %d, want %d", sky.Count, len(wantSky.Facilities))
			}
			if sky.LatencyMS < 0 {
				t.Errorf("negative latency %f", sky.LatencyMS)
			}

			var top wire.Result
			getJSON(t, ts, "/topk?edge=17&t=0.25&k=3&weights=1,1,1", http.StatusOK, &top)
			if !reflect.DeepEqual(resultIDs(top), libIDs(wantTop)) {
				t.Errorf("topk ids %v, want %v", resultIDs(top), libIDs(wantTop))
			}
			if len(top.Facilities) > 0 && top.Facilities[0].Score <= 0 {
				t.Errorf("topk first score %f, want > 0", top.Facilities[0].Score)
			}

			var near wire.Result
			getJSON(t, ts, "/nearest?edge=17&t=0.25&cost=1&k=5", http.StatusOK, &near)
			if len(near.Facilities) != len(wantNear) {
				t.Errorf("nearest %d results, want %d", len(near.Facilities), len(wantNear))
			}
			for i := range near.Facilities {
				if near.Facilities[i].ID != wantNear[i].ID {
					t.Errorf("nearest[%d] = %d, want %d", i, near.Facilities[i].ID, wantNear[i].ID)
				}
			}

			var within wire.Result
			getJSON(t, ts, "/within?edge=17&t=0.25&budget=200,200,200", http.StatusOK, &within)
			if !reflect.DeepEqual(resultIDs(within), libIDs(wantWithin)) {
				t.Errorf("within ids %v, want %v", resultIDs(within), libIDs(wantWithin))
			}
		})
	}
}

// Health and stats endpoints report server state. (Malformed query parameters
// are pinned, per decoder and through the gateway, by internal/cluster's
// TestMalformedRequests.)
func TestHealthAndStats(t *testing.T) {
	handlers, _ := testServers(t)
	ts := httptest.NewServer(handlers["memory"])
	defer ts.Close()

	var health map[string]any
	getJSON(t, ts, "/healthz", http.StatusOK, &health)
	if health["status"] != "ok" || health["cost_types"].(float64) != 3 {
		t.Errorf("healthz = %v", health)
	}

	var stats map[string]any
	getJSON(t, ts, "/stats", http.StatusOK, &stats)
	if _, ok := stats["completed"]; !ok {
		t.Errorf("stats missing counters: %v", stats)
	}
}

// A cache-on server reports the result cache as one block: counters, hit
// rate and live entries, with no per-partition array beside it.
func TestStatsResultCache(t *testing.T) {
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 600, Facilities: 50, D: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	net := mcn.FromGraph(g)
	net.EnableResultCache(mcn.CacheOptions{})
	ts := httptest.NewServer(New(net, Config{Workers: 2, Timeout: time.Minute}).Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		var res wire.Result
		getJSON(t, ts, "/topk?edge=5&t=0.5&k=2", http.StatusOK, &res)
	}
	var stats map[string]any
	getJSON(t, ts, "/stats", http.StatusOK, &stats)
	for key := range stats {
		if strings.HasPrefix(key, "cache") && key != "cache" {
			t.Errorf("/stats reports %q beside the cache block", key)
		}
	}
	cache, ok := stats["cache"].(map[string]any)
	if !ok {
		t.Fatalf("/stats cache = %v, want an object", stats["cache"])
	}
	want := map[string]float64{"hits": 1, "misses": 1, "entries": 1, "hit_rate": 0.5}
	for key, v := range want {
		if got, ok := cache[key].(float64); !ok || got != v {
			t.Errorf("cache.%s = %v, want %v", key, cache[key], v)
		}
	}
}

// Query errors map to statuses by fault domain: cancellation is 503, panics
// and storage faults are 500 with internals kept out of the message, and
// validation errors are the caller's 400.
func TestClassifyError(t *testing.T) {
	cases := []struct {
		err    error
		status int
		msg    string
	}{
		{context.Canceled, http.StatusServiceUnavailable, context.Canceled.Error()},
		{fmt.Errorf("engine: queued query aborted: %w", context.DeadlineExceeded),
			http.StatusServiceUnavailable, "engine: queued query aborted: context deadline exceeded"},
		{fmt.Errorf("storage: read page 7: disk gone"), http.StatusInternalServerError, "storage failure"},
		{fmt.Errorf("core: top-k requires k >= 1, got 0"), http.StatusBadRequest, "core: top-k requires k >= 1, got 0"},
	}
	for _, c := range cases {
		status, msg := classifyError(c.err)
		if status != c.status || msg != c.msg {
			t.Errorf("classifyError(%v) = %d %q, want %d %q", c.err, status, msg, c.status, c.msg)
		}
	}

	// A panicking query surfaces as a generic 500, not a 400 with internals.
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 300, Facilities: 40, D: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	exec := mcn.FromGraph(g).NewExecutor(mcn.ExecutorConfig{Workers: 1})
	resp := exec.Do(context.Background(), mcn.TopKRequest(mcn.Location{Edge: 0, T: 0.5}, nil, 2))
	if !mcn.IsQueryPanic(resp.Err) {
		t.Fatalf("nil aggregate did not register as a panic: %v", resp.Err)
	}
	status, msg := classifyError(resp.Err)
	if status != http.StatusInternalServerError || msg != "internal query failure" {
		t.Errorf("panic classified as %d %q", status, msg)
	}
}

// The server must answer overlapping requests correctly (run with -race):
// many goroutines hammer one handler over a shared network.
func TestServerConcurrentRequests(t *testing.T) {
	handlers, ref := testServers(t)
	for name, h := range handlers {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(h)
			defer ts.Close()

			locs := []mcn.Location{{Edge: 3, T: 0.5}, {Edge: 40, T: 0.1}, {Edge: 77, T: 0.9}}
			want := make([][]mcn.FacilityID, len(locs))
			for i, loc := range locs {
				res, err := ref.TopK(ctx, loc, mcn.WeightedSum(1, 1, 1), 3)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = libIDs(res)
			}

			var wg sync.WaitGroup
			for w := 0; w < 12; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < 5; r++ {
						i := (w + r) % len(locs)
						resp, err := ts.Client().Get(fmt.Sprintf("%s/topk?edge=%d&t=%g&k=3",
							ts.URL, locs[i].Edge, locs[i].T))
						if err != nil {
							t.Error(err)
							return
						}
						var res wire.Result
						err = json.NewDecoder(resp.Body).Decode(&res)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK {
							t.Errorf("status %d err %v", resp.StatusCode, err)
							return
						}
						if !reflect.DeepEqual(resultIDs(res), want[i]) {
							t.Errorf("loc %d: concurrent %v != sequential %v", i, resultIDs(res), want[i])
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestPprofEndpoints: profiling routes exist only on the opt-in handler.
func TestPprofEndpoints(t *testing.T) {
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 600, Facilities: 50, D: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(mcn.FromGraph(g), Config{Workers: 2, Timeout: time.Minute})

	plain := httptest.NewServer(srv.Handler())
	defer plain.Close()
	resp, err := plain.Client().Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("default handler serves /debug/pprof/ with %d, want 404", resp.StatusCode)
	}

	profiled := httptest.NewServer(srv.ProfiledHandler())
	defer profiled.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := profiled.Client().Get(profiled.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("profiled handler %s = %d, want 200", path, resp.StatusCode)
		}
	}
	// The query endpoints must still work with profiling enabled.
	resp, err = profiled.Client().Get(profiled.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("profiled handler /healthz = %d, want 200", resp.StatusCode)
	}
}
