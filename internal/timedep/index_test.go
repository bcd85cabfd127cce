package timedep

import (
	"fmt"
	"math"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/index"
)

// TestIndexAdmissibleAtEveryInstant pins the one pruning index a version
// builds on its first WithinAt: for every elementary interval, criterion and node it
// must not exceed, through index.SlackFactor, the exact nearest-facility
// distance under that interval's costs — the per-interval index, which
// survives here only as the reference. Two profile families, directed and
// undirected: randomProfiled's integer costs with multipliers in
// {0.5, 1, 2, 3} (ties everywhere), and AttachSyntheticProfiles' real
// multipliers in [0.5, 3].
func TestIndexAdmissibleAtEveryInstant(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("directed=%v/seed=%d", directed, seed), func(t *testing.T) {
				ties, _ := randomProfiled(t, directed, seed)
				inst, err := gen.MakeInstance(gen.InstanceConfig{
					Nodes: 300, Facilities: 30, D: 3, Queries: 1, Directed: directed, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				synthetic := New(inst.Graph)
				if err := AttachSyntheticProfiles(synthetic, inst.Graph.NumEdges()/5, seed); err != nil {
					t.Fatal(err)
				}
				checkAdmissible(t, "ties", ties)
				checkAdmissible(t, "synthetic", synthetic)
			})
		}
	}
}

func checkAdmissible(t *testing.T, label string, n *Network) {
	t.Helper()
	g := n.Base()
	ver := n.cur.Load()
	bounds := ver.floorIndex(n)
	positive := false
	for k := 0; k <= len(ver.times); k++ {
		at := ver.start(k)
		exact, err := n.ov.Base().Index(g, func(e graph.EdgeID, i int) float64 { return ver.costAt(g, e, at)[i] }, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.D(); i++ {
			for v := 0; v < g.NumNodes(); v++ {
				lb, want := bounds.LowerBound(i, graph.NodeID(v)), exact.LowerBound(i, graph.NodeID(v))
				if lb*index.SlackFactor > want {
					t.Fatalf("%s: interval %d criterion %d node %d: bound %g exceeds the interval's exact %g",
						label, k, i, v, lb, want)
				}
				positive = positive || (lb > 0 && !math.IsInf(lb, 1))
			}
		}
	}
	if !positive {
		t.Errorf("%s: every bound is 0 or +Inf; the index prunes nothing", label)
	}
}
