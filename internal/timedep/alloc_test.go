// The absolute allocation bounds below hold for normal builds only: race
// instrumentation adds allocations of its own, and `make cover` runs the
// suite under -race.

//go:build !race

package timedep

import (
	"testing"

	"mcn/internal/core"
	"mcn/internal/gen"
	"mcn/internal/vec"
)

// TestInstantQueryAllocs pins the overlay fast path's allocation behaviour:
// an instant skyline or top-k query on a compiled time-dependent network
// must run at the in-memory flat-path level (the residual allocations are
// the per-facility tracked structs and result building — see
// internal/flat's TestQueryAllocsWithScratch), not at the snapshot path's
// level, which allocates a whole graph per query. Interval resolution,
// scratch pooling and the ctx-first entry points must all stay off the
// allocation profile.
func TestInstantQueryAllocs(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 400, Facilities: 60, Clusters: 3, D: 3, Queries: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := New(inst.Graph)
	if err := n.SetProfile(0, Profile{
		Times: []float64{10, 20, 30},
		Mult:  []vec.Costs{vec.Of(2, 1, 1), vec.Of(1, 3, 1), vec.Of(1, 1, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	loc := inst.Queries[0]
	agg := vec.NewWeighted(1, 1, 1)

	for _, tc := range []struct {
		name  string
		limit float64
		run   func(at float64)
	}{
		{"skyline", 25, func(at float64) {
			if _, err := n.SkylineAt(ctx, loc, at, core.Options{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"topk", 70, func(at float64) {
			if _, err := n.TopKAt(ctx, loc, agg, 4, at, core.Options{}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Warm the overlay compilation and the pooled scratch.
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
}
