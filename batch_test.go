package mcn

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// batchNetworks returns in-memory and disk-resident views of one synthetic
// network, plus query locations on it.
func batchNetworks(t *testing.T) (map[string]*Network, []Location) {
	t.Helper()
	g, err := Synthetic(SyntheticConfig{Nodes: 1_500, Facilities: 250, D: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "batch.mcn")
	if err := CreateDatabase(g, path); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDatabaseOptions(path, 0.05, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return map[string]*Network{"memory": FromGraph(g), "disk": db}, RandomQueries(g, 10, 3)
}

// batchResults runs reqs through Network.Batch with workers in flight and
// returns the results in request order, failing on any per-request error.
func batchResults(t *testing.T, net *Network, reqs []BatchRequest, workers int) []*Result {
	t.Helper()
	out := make([]*Result, len(reqs))
	for i, resp := range net.Batch(context.Background(), reqs, ExecutorConfig{Workers: workers}) {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		out[i] = resp.Result
	}
	return out
}

// One Batch per query kind, built from the request constructors, must agree
// with the sequential facade methods over both network backends (run with
// -race).
func TestBatchMethodsMatchSequential(t *testing.T) {
	nets, locs := batchNetworks(t)
	agg := WeightedSum(0.4, 0.4, 0.2)
	budget := Of(300, 300, 300)
	ctx := context.Background()
	perLoc := func(req func(Location) BatchRequest) []BatchRequest {
		reqs := make([]BatchRequest, len(locs))
		for i, loc := range locs {
			reqs[i] = req(loc)
		}
		return reqs
	}

	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			sky := batchResults(t, net, perLoc(func(l Location) BatchRequest { return SkylineRequest(l, WithEngine(CEA)) }), 8)
			top := batchResults(t, net, perLoc(func(l Location) BatchRequest { return TopKRequest(l, agg, 3) }), 8)
			near := batchResults(t, net, perLoc(func(l Location) BatchRequest { return NearestRequest(l, 1, 4) }), 8)
			within := batchResults(t, net, perLoc(func(l Location) BatchRequest { return WithinRequest(l, budget) }), 8)
			for i, loc := range locs {
				wantSky, err := net.Skyline(ctx, loc, WithEngine(CEA))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(idsSorted(sky[i]), idsSorted(wantSky)) {
					t.Errorf("query %d: batch skyline %v != %v", i, idsSorted(sky[i]), idsSorted(wantSky))
				}
				wantTop, err := net.TopK(ctx, loc, agg, 3)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ids(top[i]), ids(wantTop)) {
					t.Errorf("query %d: batch top-k %v != %v", i, ids(top[i]), ids(wantTop))
				}
				wantNear, err := net.Nearest(ctx, loc, 1, 4)
				if err != nil {
					t.Fatal(err)
				}
				if len(near[i].Facilities) != len(wantNear) {
					t.Errorf("query %d: batch nearest %d results, want %d", i, len(near[i].Facilities), len(wantNear))
				}
				wantWithin, err := net.Within(ctx, loc, budget)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ids(within[i]), ids(wantWithin)) {
					t.Errorf("query %d: batch within %v != %v", i, ids(within[i]), ids(wantWithin))
				}
			}
		})
	}
}

// Heterogeneous Batch calls report per-request outcomes and an executor
// reused across batches keeps aggregate statistics.
func TestBatchHeterogeneousAndStats(t *testing.T) {
	nets, locs := batchNetworks(t)
	net := nets["memory"]
	agg := WeightedSum(1, 1, 1)

	reqs := []BatchRequest{
		SkylineRequest(locs[0], WithEngine(CEA)),
		TopKRequest(locs[1], agg, 2),
		NearestRequest(locs[2], 0, 3),
		WithinRequest(locs[3], Of(250, 250, 250)),
		TopKRequest(locs[4], agg, 0), // invalid k: per-request error, not batch failure
	}
	resps := net.Batch(context.Background(), reqs, ExecutorConfig{Workers: 4})
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses, want %d", len(resps), len(reqs))
	}
	for i, resp := range resps[:4] {
		if resp.Err != nil {
			t.Errorf("request %d: %v", i, resp.Err)
		}
		if resp.Latency <= 0 {
			t.Errorf("request %d: no latency recorded", i)
		}
	}
	if resps[4].Err == nil {
		t.Error("invalid k: expected a per-request error")
	}

	exec := net.NewExecutor(ExecutorConfig{Workers: 4, Timeout: time.Minute})
	for i := 0; i < 3; i++ {
		if resp := exec.Do(context.Background(), SkylineRequest(locs[i])); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if s := exec.Stats(); s.Completed != 3 || s.Queries() != 3 {
		t.Errorf("executor stats = %+v, want 3 completed", s)
	}
}

// Cancellation propagates into running queries via the interrupt hook.
func TestBatchCancellation(t *testing.T) {
	nets, locs := batchNetworks(t)
	net := nets["memory"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]BatchRequest, len(locs))
	for i, loc := range locs {
		reqs[i] = SkylineRequest(loc)
	}
	for i, resp := range net.Batch(ctx, reqs, ExecutorConfig{Workers: 2}) {
		if !errors.Is(resp.Err, context.Canceled) {
			t.Fatalf("request %d: err = %v, want context.Canceled", i, resp.Err)
		}
	}
}
