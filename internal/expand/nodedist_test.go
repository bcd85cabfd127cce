package expand

import (
	"math"
	"math/rand"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testnet"
)

// pathGraph builds an n-node unit-cost path with no facilities.
func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	topo := gen.Path(n)
	g, err := gen.Assemble(topo, gen.UnitCosts(topo, 1), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// One scratch serves every probe of every trial: repeated probes through it
// must not contaminate each other, whatever graph they ran on.
func TestNodeDistancesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	sc := acquire(t, unsized{})
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(3)
		g := randomGraph(t, rng, d, rng.Intn(3) == 0)
		loc := randomLocation(rng, g)
		var targets []graph.NodeID
		for i := 0; i < 1+rng.Intn(5); i++ {
			targets = append(targets, graph.NodeID(rng.Intn(g.NumNodes())))
		}
		for i := 0; i < d; i++ {
			oracle := testnet.NodeCosts(g, loc, i)
			sc.reset()
			got, err := NodeDistances(NewMemorySource(g), i, loc, targets, sc)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range targets {
				want := oracle[v]
				gv := got[j]
				if math.IsInf(want, 1) != math.IsInf(gv, 1) {
					t.Fatalf("trial %d: node %d reachability mismatch (got %g, want %g)", trial, v, gv, want)
				}
				if !math.IsInf(want, 1) && math.Abs(gv-want) > 1e-9*(1+want) {
					t.Fatalf("trial %d: node %d dist %g, oracle %g", trial, v, gv, want)
				}
			}
		}
	}
}

// NodeDistances must terminate early: settling only nearby targets must
// touch far fewer adjacency records than the full network.
func TestNodeDistancesEarlyTermination(t *testing.T) {
	// Long path, target next to the query.
	g := pathGraph(t, 500)
	mem := NewMemorySource(g)
	loc := graph.Location{Edge: 0, T: 0}
	if _, err := NodeDistances(mem, 0, loc, []graph.NodeID{1}, acquire(t, mem)); err != nil {
		t.Fatal(err)
	}
	if mem.Count.Snapshot().Adjacency > 10 {
		t.Errorf("early termination failed: %d adjacency reads for an adjacent target", mem.Count.Snapshot().Adjacency)
	}
}

func TestLocationCostsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	sc := acquire(t, unsized{})
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(3)
		g := randomGraph(t, rng, d, rng.Intn(4) == 0)
		loc := randomLocation(rng, g)
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		tt := rng.Float64()

		got, err := LocationCosts(NewMemorySource(g), loc, e, tt, sc)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle: add a temporary facility at (e, tt) to a rebuilt graph.
		b := graph.NewBuilder(d, g.Directed())
		for v := 0; v < g.NumNodes(); v++ {
			n := g.Node(graph.NodeID(v))
			b.AddNode(n.X, n.Y)
		}
		for ei := 0; ei < g.NumEdges(); ei++ {
			edge := g.Edge(graph.EdgeID(ei))
			b.AddEdge(edge.U, edge.V, edge.W)
		}
		fid := b.AddFacility(e, tt)
		g2 := b.MustBuild()
		for i := 0; i < d; i++ {
			want := testnet.FacilityCosts(g2, loc, i)[fid]
			if math.IsInf(want, 1) != math.IsInf(got[i], 1) {
				t.Fatalf("trial %d: cost %d reachability mismatch (got %g want %g)", trial, i, got[i], want)
			}
			if !math.IsInf(want, 1) && math.Abs(got[i]-want) > 1e-9*(1+want) {
				t.Fatalf("trial %d: cost %d = %g, oracle %g", trial, i, got[i], want)
			}
		}
	}
}
