// The absolute allocation bound below holds for normal builds only: race
// instrumentation adds allocations of its own, and `make cover` runs the
// suite under -race.

//go:build !race

package dynamic

import (
	"math/rand"
	"testing"

	"mcn/internal/core"
	"mcn/internal/flat"
	"mcn/internal/gen"
	"mcn/internal/graph"
)

// TestInsertAllocs pins an insert at its two allocations — the cost vector
// and the entry — plus the maintained map's amortised growth: no scratch,
// no expansion state, nothing per node.
func TestInsertAllocs(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 2000, Facilities: 300, D: 4, Queries: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(flat.Compile(inst.Graph), inst.Queries[0], core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	edges := inst.Graph.NumEdges()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := m.Insert(graph.EdgeID(rng.Intn(edges)), rng.Float64()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/insert: %.0f", allocs)
	if allocs > 3 {
		t.Errorf("Insert allocates %.0f times per call (> 3)", allocs)
	}
}
