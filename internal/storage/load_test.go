package storage

import (
	"math/rand"
	"slices"
	"testing"

	"mcn/internal/graph"
	"mcn/internal/vec"
)

func TestLoadGraphRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(800))
	for trial := 0; trial < 10; trial++ {
		d := 1 + rng.Intn(4)
		nn := 2 + rng.Intn(60)
		directed := rng.Intn(2) == 0
		b := graph.NewBuilder(d, directed)
		b.AddNodes(nn)
		ne := 1 + rng.Intn(2*nn)
		for i := 0; i < ne; i++ {
			u := graph.NodeID(rng.Intn(nn))
			v := graph.NodeID(rng.Intn(nn))
			if u == v {
				v = (v + 1) % graph.NodeID(nn)
			}
			w := make(vec.Costs, d)
			for j := range w {
				w[j] = rng.Float64() * 10
			}
			b.AddEdge(u, v, w)
		}
		for i := 0; i < rng.Intn(40); i++ {
			b.AddFacility(graph.EdgeID(rng.Intn(ne)), rng.Float64())
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}

		dev, err := BuildMem(g)
		if err != nil {
			t.Fatal(err)
		}
		net, err := Open(dev, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		sameAsLoaded(t, trial, g, net)
	}
}

// sameAsLoaded checks that LoadGraph(n) reproduces g: shape, every node's
// arcs in order, every edge and every facility.
func sameAsLoaded(t *testing.T, trial int, g *graph.Graph, n *Network) {
	t.Helper()
	g2, err := LoadGraph(n)
	if err != nil {
		t.Fatalf("trial %d: LoadGraph: %v", trial, err)
	}
	if g2.D() != g.D() || g2.Directed() != g.Directed() || g2.NumNodes() != g.NumNodes() ||
		g2.NumEdges() != g.NumEdges() || g2.NumFacilities() != g.NumFacilities() {
		t.Fatalf("trial %d: shape mismatch", trial)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if a, b := g.Arcs(graph.NodeID(v)), g2.Arcs(graph.NodeID(v)); !slices.Equal(a, b) {
			t.Fatalf("trial %d: node %d: arcs %v, want %v", trial, v, b, a)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		a, b := g.Edge(graph.EdgeID(e)), g2.Edge(graph.EdgeID(e))
		if a.U != b.U || a.V != b.V || !a.W.Equal(b.W) {
			t.Fatalf("trial %d: edge %d differs: %+v vs %+v", trial, e, a, b)
		}
	}
	for p := 0; p < g.NumFacilities(); p++ {
		if a, b := g.Facility(graph.FacilityID(p)), g2.Facility(graph.FacilityID(p)); a != b {
			t.Fatalf("trial %d: facility %d differs: %+v vs %+v", trial, p, a, b)
		}
	}
}
