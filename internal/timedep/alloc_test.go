// The absolute allocation bounds below hold for normal builds only: race
// instrumentation adds allocations of its own, and `make cover` runs the
// suite under -race.

//go:build !race

package timedep

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mcn/internal/core"
	"mcn/internal/flat"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// TestInstantQueryAllocs pins the overlay fast path's allocation behaviour:
// an instant skyline or top-k query on a compiled time-dependent network
// must run at the in-memory flat-path level (the residual allocations are
// the per-facility tracked structs and result building — see
// internal/flat's TestQueryAllocsWithScratch), not at the snapshot path's
// level, which allocates a whole graph per query. Interval resolution,
// scratch pooling and the ctx-first entry points must all stay off the
// allocation profile, and so must the first read after a SetProfile: the
// edit compiled the version it reads.
func TestInstantQueryAllocs(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 400, Facilities: 60, Clusters: 3, D: 3, Queries: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := New(inst.Graph)
	profiles := []Profile{
		{Times: []float64{10, 20, 30}, Mult: []vec.Costs{vec.Of(2, 1, 1), vec.Of(1, 3, 1), vec.Of(1, 1, 1)}},
		{Times: []float64{10, 20, 30}, Mult: []vec.Costs{vec.Of(1, 2, 1), vec.Of(3, 1, 1), vec.Of(1, 1, 2)}},
	}
	if err := n.SetProfile(0, profiles[0]); err != nil {
		t.Fatal(err)
	}
	loc := inst.Queries[0]
	agg := vec.NewWeighted(1, 1, 1)
	skyline := func(at float64) {
		if _, err := n.SkylineAt(ctx, loc, at, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name  string
		limit float64
		run   func(at float64)
	}{
		{"skyline", 25, skyline},
		{"topk", 70, func(at float64) {
			if _, err := n.TopKAt(ctx, loc, agg, 4, at, core.Options{}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Warm the pooled scratch.
			tc.run(0)
			at := 0.0
			allocs := testing.AllocsPerRun(20, func() {
				tc.run(at)
				at += 7 // rotate across intervals: switching must not allocate
			})
			t.Logf("%s allocs/query: %.0f", tc.name, allocs)
			if allocs > tc.limit {
				t.Errorf("instant %s allocates %.0f/query (> %.0f): the overlay fast path is leaking allocations",
					tc.name, allocs, tc.limit)
			}
		})
	}

	t.Run("skyline after SetProfile", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 20
		var before, after runtime.MemStats
		var mallocs uint64
		for i := 0; i < runs; i++ {
			// Axis-preserving edits that change the interval the read lands in.
			if err := n.SetProfile(0, profiles[(i+1)%2]); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			skyline(15)
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
		}
		allocs := float64(mallocs) / runs
		t.Logf("allocs/query after an edit: %.0f", allocs)
		if allocs > 25 {
			t.Errorf("the first skyline after SetProfile allocates %.0f/query (> 25): reads must not compile", allocs)
		}
	})
}

// TestSweepReusesReadSet gates what a warm period sweep allocates: below
// 4 bytes per edge, the size of the read set's stamp array, so a sweep that
// built its read set rather than reusing a pooled one fails. The network
// has many edges and few facilities (10 000 nodes, 100 facilities, d = 4,
// synthetic profiles on a tenth of the edges), so the per-facility result
// allocations stay well inside the bound; the sweeps are cut as
// BenchmarkOverPeriod's are, and most run one interval's query.
func TestSweepReusesReadSet(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 10000, Facilities: 100, D: 4, Queries: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := inst.Graph
	n := New(g)
	if err := AttachSyntheticProfiles(n, g.NumEdges()/10, 1); err != nil {
		t.Fatal(err)
	}
	cases := sweepCases(n, 10, rand.New(rand.NewSource(1)))
	// One P before warming: resizing GOMAXPROCS drops every sync.Pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	queries := 0
	for _, c := range cases { // warm the pooled scratch and read set
		c.run(t, n, &queries)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range cases {
		c.run(t, n, &queries)
	}
	runtime.ReadMemStats(&after)
	perSweep := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(cases))
	limit := 4 * float64(g.NumEdges())
	t.Logf("%.0f B per warm sweep; %d edges", perSweep, g.NumEdges())
	if perSweep >= limit {
		t.Errorf("a warm sweep allocates %.0f B (>= %.0f B, 4 per edge): the read set is not reused", perSweep, limit)
	}
}

// TestCompileFootprint gates what building the network behind the
// benchmark's time-dependent workloads allocates (td2k: 2 000 nodes,
// mcnserve -timedep's |E|/10 synthetic profiles, 945 elementary
// intervals): New plus AttachSyntheticProfiles, where the compile runs. The
// CSR topology is most of the budget; the base matrix and the profiled
// edges' rows add O(|E|·d + Σ segments·d). One |E|·d matrix per interval
// allocated 80.5 MiB here; a pruning index per interval added 164 MiB.
func TestCompileFootprint(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 2000, Facilities: 1150, D: 4, Queries: 1, Seed: 1, Dist: gen.AntiCorrelated,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, got, _ := compileAlloc(t, inst.Graph)
	const ceiling = 4 << 20
	t.Logf("%d intervals compiled with %.2f MiB allocated", len(n.cur.Load().times)+1, float64(got)/(1<<20))
	if got > ceiling {
		t.Errorf("compile allocated %.2f MiB (> %d MiB)", float64(got)/(1<<20), ceiling>>20)
	}
}

// TestCompileFootprintSF25 is the scale gate: the same profile shape on the
// sf25 network (43 750 nodes, 25 000 facilities, d = 4) compiles in under
// 2 s and allocates less than twice what the static flat compilation of the
// same graph does. One matrix per elementary interval needed about 39 GB.
func TestCompileFootprintSF25(t *testing.T) {
	if testing.Short() {
		t.Skip("sf25-sized instance")
	}
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 43750, Facilities: 25000, D: 4, Queries: 1, Seed: 1, Dist: gen.AntiCorrelated,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	flat.Compile(inst.Graph)
	runtime.ReadMemStats(&after)
	static := after.TotalAlloc - before.TotalAlloc
	_, got, took := compileAlloc(t, inst.Graph)
	t.Logf("%d edges: compiled in %v with %.1f MiB allocated; flat.Compile allocates %.1f MiB",
		inst.Graph.NumEdges(), took, float64(got)/(1<<20), float64(static)/(1<<20))
	if took >= 2*time.Second {
		t.Errorf("compile took %v (>= 2s)", took)
	}
	if got >= 2*static {
		t.Errorf("compile allocated %.1f MiB (>= 2x flat.Compile's %.1f MiB)", float64(got)/(1<<20), float64(static)/(1<<20))
	}
}

// compileAlloc runs New plus AttachSyntheticProfiles on a tenth of g's
// edges and returns the network, what the two allocate and how long they
// take.
func compileAlloc(t *testing.T, g *graph.Graph) (*Network, uint64, time.Duration) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := New(g)
	if err := AttachSyntheticProfiles(n, g.NumEdges()/10, 1); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return n, after.TotalAlloc - before.TotalAlloc, took
}
