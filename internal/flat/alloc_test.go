// The absolute allocation bounds below hold for normal builds only: under
// -race, sync.Pool drops pooled scratch at random and race instrumentation
// allocates on its own.

//go:build !race

package flat

import (
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
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

// TestFlatPopLoopZeroAlloc proves the acceptance criterion: once the pooled
// scratch is warm, the steady-state expansion pop loop over a flat source
// performs zero allocations per step. The only allocation left per whole
// expansion is the Expansion struct — a constant that does not grow with the
// number of steps.
func TestFlatPopLoopZeroAlloc(t *testing.T) {
	inst := testInstance(t, false, 11)
	fs := Compile(inst.Graph)
	loc := inst.Queries[0]

	// Warm-up run: grows the heap backing and the dense state arrays once.
	sc := expand.Acquire(fs)
	x, err := expand.New(fs, 0, loc, sc)
	if err != nil {
		t.Fatal(err)
	}
	_, steps := drain(t, x)
	sc.Release()
	if steps < 100 {
		t.Fatalf("instance too small for a meaningful measurement: %d steps", steps)
	}

	var stepErr error
	allocs := testing.AllocsPerRun(10, func() {
		sc := expand.Acquire(fs)
		defer sc.Release()
		x, err := expand.New(fs, 0, loc, sc)
		if err != nil {
			stepErr = err
			return
		}
		for {
			ev, _, _, err := x.Step()
			if err != nil {
				stepErr = err
				return
			}
			if ev == expand.EventExhausted {
				return
			}
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	// The per-expansion constant (the Expansion struct) is ≤ 2 allocations;
	// with hundreds of steps per run, anything above that means the pop loop
	// itself allocates.
	if allocs > 2 {
		t.Errorf("full expansion over warmed scratch allocated %.1f times (%d steps); pop loop is not alloc-free", allocs, steps)
	}
	if perStep := allocs / float64(steps); perStep > 0.01 {
		t.Errorf("pop loop allocates %.4f/step, want 0", perStep)
	}
}
