package expand

import (
	"math"
	"testing"

	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
)

// distancesAfterDrain runs one expansion to exhaustion and returns its
// node distance table, written into buf.
func distancesAfterDrain(t *testing.T, src Source, costIdx int, loc graph.Location, sc *Scratch, buf []float64) []float64 {
	t.Helper()
	x, err := New(src, costIdx, loc, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, x)
	return x.Distances(buf)
}

// One scratch and one output buffer serve every expansion of every trial,
// directed and undirected, tie-heavy integer costs included: a drained
// expansion's table must equal the Bellman-Ford node costs, whatever graph
// the scratch ran on before. Node ids the source declares are exactly the
// table; an undeclared id space may carry a longer tail from an earlier,
// larger graph, which must read +Inf.
func TestDistancesMatchesOracle(t *testing.T) {
	sc := acquire(t, unsized{})
	var buf []float64
	for trial := 0; trial < 80; trial++ {
		inst := testnet.Generate(int64(trial), testnet.ShapeOf(int64(trial)))
		g, loc, d := inst.G, inst.Loc, inst.G.D()
		var src Source = unsized{testnet.NewMemorySource(g)}
		if trial%2 == 1 {
			src = sized{testnet.NewMemorySource(g)}
		}
		for i := 0; i < d; i++ {
			sc.reset()
			sc.bind(src)
			buf = distancesAfterDrain(t, src, i, loc, sc, buf)
			if trial%2 == 1 && len(buf) != g.NumNodes() {
				t.Fatalf("trial %d: declared id space of %d nodes, table has %d", trial, g.NumNodes(), len(buf))
			}
			oracle := testnet.NodeCosts(g, loc, i)
			for v, got := range buf {
				want := math.Inf(1)
				if v < len(oracle) {
					want = oracle[v]
				}
				if math.IsInf(want, 1) != math.IsInf(got, 1) {
					t.Fatalf("trial %d cost %d: node %d reachability mismatch (got %g, want %g)", trial, i, v, got, want)
				}
				if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-9*(1+want) {
					t.Fatalf("trial %d cost %d: node %d dist %g, oracle %g", trial, i, v, got, want)
				}
			}
			for v := len(buf); v < g.NumNodes(); v++ {
				if !math.IsInf(oracle[v], 1) {
					t.Fatalf("trial %d cost %d: reachable node %d (oracle %g) missing from the table", trial, i, v, oracle[v])
				}
			}
		}
	}
}

// Before exhaustion only settled nodes carry a distance: after the first
// node event exactly one entry is finite, the nearer end-node of the query
// edge.
func TestDistancesOnlySettledNodes(t *testing.T) {
	g := lineGraph(t)
	mem := testnet.NewMemorySource(g)
	x, err := newOn(t, mem, 0, graph.Location{Edge: 0, T: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if ev, _, _, err := x.Step(); err != nil || ev != EventNode {
		t.Fatalf("first step: event %v, err %v; want a node", ev, err)
	}
	dist := x.Distances(nil)
	for v, c := range dist {
		switch {
		case v == 0 && c != 0.5: // a quarter of the 2-cost edge 0-1
			t.Errorf("node 0: %g, want 0.5", c)
		case v != 0 && !math.IsInf(c, 1):
			t.Errorf("node %d: %g before it was settled, want +Inf", v, c)
		}
	}
}
