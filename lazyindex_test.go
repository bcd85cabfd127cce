package mcn

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mcn/internal/core"
	"mcn/internal/index"
	"mcn/internal/testsupport/testnet"
)

// An in-memory network builds its pruning index on its first within query
// and on nothing else: after FromGraph, an executor, a skyline, a top-k, a
// nearest query (direct and through the executor) and a maintainer,
// IndexStats still reports none. Then eight first within queries at once —
// half direct, half through executors made before any index existed —
// build it exactly once, and every one answers as core.Within does over the
// reference source with an eagerly built index (index.FromGraph in the
// graph's numbering): the same facilities and the same Stats, the pruned
// node count included, which is positive for some of them.
func TestPruningIndexWaitsForFirstWithin(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{Nodes: 2_000, Facilities: 300, D: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	net := FromGraph(g)
	var builds atomic.Int32
	build := net.prune.build
	net.prune.build = func(interrupt func() error) (*index.Bounds, error) {
		builds.Add(1)
		return build(interrupt)
	}
	locs := RandomQueries(g, 8, 3)
	ex := net.NewExecutor(ExecutorConfig{Workers: 2})
	if _, err := net.Skyline(ctx, locs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := net.TopK(ctx, locs[1], WeightedSum(1, 1, 1), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Nearest(ctx, locs[2], 0, 3); err != nil {
		t.Fatal(err)
	}
	for _, r := range ex.Execute(ctx, []BatchRequest{SkylineRequest(locs[3]), TopKRequest(locs[4], WeightedSum(1, 2, 3), 2), NearestRequest(locs[5], 1, 2)}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	m, err := net.Maintain(ctx, locs[6])
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if is, ok := net.IndexStats(); ok || builds.Load() != 0 {
		t.Fatalf("IndexStats %+v, ok=%v and %d builds before any within query", is, ok, builds.Load())
	}

	ref := testnet.NewMemorySource(g)
	eager := index.FromGraph(g)
	budget := Of(25, 25, 25)
	want := make([]*Result, len(locs))
	for i, loc := range locs {
		if want[i], err = core.Within(ref, loc, budget, core.Options{Bounds: eager}); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*Result, len(locs))
	errs := make([]error, len(locs))
	var wg sync.WaitGroup
	for i, loc := range locs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				got[i], errs[i] = net.Within(ctx, loc, budget)
				return
			}
			r := net.NewExecutor(ExecutorConfig{Workers: 1}).Do(ctx, WithinRequest(loc, budget))
			got[i], errs[i] = r.Result, r.Err
			if i == 1 {
				r = ex.Do(ctx, WithinRequest(loc, budget))
				if r.Err == nil && !reflect.DeepEqual(r.Result, got[i]) {
					t.Errorf("location %d: the executor made before the index answers %+v, a new one %+v", i, r.Result, got[i])
				}
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d index builds for eight first within queries, want 1", n)
	}
	pruned := 0
	for i := range locs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("location %d: within answers %+v, the eagerly indexed reference %+v", i, got[i], want[i])
		}
		pruned += got[i].Stats.PrunedNodes
	}
	if pruned == 0 {
		t.Error("no within query pruned a node: the budget does not exercise the index")
	}
	is, ok := net.IndexStats()
	if !ok || is.BoundsBytes != eager.Bytes() {
		t.Errorf("IndexStats %+v, ok=%v after the first within; want %d bytes", is, ok, eager.Bytes())
	}
}

// The first within's build belongs to that query: a budget the query
// refuses builds nothing, directly or through an executor; a context
// cancelled while the index builds stops the build, fails the query with
// the context's error and publishes no index; and the next within builds
// it and answers.
func TestPruningIndexBuildFollowsItsQuery(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{Nodes: 2_000, Facilities: 300, D: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	net := FromGraph(g)
	loc := RandomQueries(g, 1, 4)[0]
	ex := net.NewExecutor(ExecutorConfig{Workers: 1})
	var builds, completed atomic.Int32
	var cancelBuild context.CancelFunc
	build := net.prune.build
	net.prune.build = func(interrupt func() error) (*index.Bounds, error) {
		builds.Add(1)
		if cancelBuild != nil {
			cancelBuild()
		}
		b, err := build(interrupt)
		if err == nil {
			completed.Add(1)
		}
		return b, err
	}

	for _, budget := range []Costs{Of(5, 5), Of(5, -1, 5), Of(5, 5, math.NaN())} {
		if _, err := net.Within(ctx, loc, budget); err == nil {
			t.Errorf("budget %v accepted", budget)
		}
		if r := ex.Do(ctx, WithinRequest(loc, budget)); r.Err == nil {
			t.Errorf("budget %v accepted by the executor", budget)
		}
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("%d index builds for within queries with refused budgets", n)
	}

	budget := Of(25, 25, 25)
	for _, viaExecutor := range []bool{false, true} {
		cctx, cancel := context.WithCancel(ctx)
		cancelBuild = cancel
		if viaExecutor {
			err = ex.Do(cctx, WithinRequest(loc, budget)).Err
		} else {
			_, err = net.Within(cctx, loc, budget)
		}
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("executor %v: a within cancelled while the index builds returns %v", viaExecutor, err)
		}
		if is, ok := net.IndexStats(); ok || completed.Load() != 0 {
			t.Fatalf("executor %v: IndexStats %+v, ok=%v and %d completed builds after a cancelled build", viaExecutor, is, ok, completed.Load())
		}
	}
	cancelBuild = nil
	res, err := net.Within(ctx, loc, budget)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Within(testnet.NewMemorySource(g), loc, budget, core.Options{Bounds: index.FromGraph(g)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("within after cancelled builds answers %+v, the eagerly indexed reference %+v", res, want)
	}
	if _, ok := net.IndexStats(); !ok || builds.Load() != 3 || completed.Load() != 1 {
		t.Errorf("IndexStats ok=%v after %d builds, %d completed; want an index from 3 builds, 1 completed", ok, builds.Load(), completed.Load())
	}
}
