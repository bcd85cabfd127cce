package flat

import (
	"testing"

	"mcn/internal/core"
	"mcn/internal/vec"
)

// TestQueryAllocsWithScratch gates what a whole in-memory skyline or top-k
// query allocates once the pooled scratch is warm: not its Dijkstra state,
// not its heap, not its edge filter (the dense epoch-stamped EdgeSet). The
// residual allocations are the per-facility tracked structs and the result,
// so the bound asserts "nothing per node, edge or pop", not absolute zero.
func TestQueryAllocsWithScratch(t *testing.T) {
	inst := testInstance(t, false, 17)
	fs := Compile(inst.Graph)
	loc := inst.Queries[0]
	coef := make([]float64, inst.Graph.D())
	for i := range coef {
		coef[i] = 1
	}
	agg := vec.NewWeighted(coef...)

	runs := func(topk bool) func() {
		return func() {
			var err error
			if topk {
				_, err = core.TopK(fs, loc, agg, 4, core.Options{})
			} else {
				_, err = core.Skyline(fs, loc, core.Options{})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tc := range []struct {
		name string
		topk bool
	}{{"skyline", false}, {"topk", true}} {
		t.Run(tc.name, func(t *testing.T) {
			// Warm the scratch (grows states, heap backing, edge set once).
			runs(tc.topk)()

			allocs := testing.AllocsPerRun(20, runs(tc.topk))
			t.Logf("%s allocs/query: %.0f", tc.name, allocs)
			// The dominant remaining allocations are tracked structs + cost
			// vectors + result building; the Dijkstra state, the heap and the
			// edge filter must all come from the scratch. An instance with
			// hundreds of nodes stays under this bound only if none of those
			// allocate per node/edge/pop.
			if lim := 16 + 6*float64(inst.Graph.NumFacilities()); allocs > lim {
				t.Errorf("%s allocates %.0f/query (> %.0f): per-step state is leaking allocations",
					tc.name, allocs, lim)
			}
		})
	}
}
