package storage

import (
	"fmt"
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
		net, err := OpenOptions(dev, 0.2, PoolOptions{})
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

// LoadGraph reconstructs the in-memory graph from a database, inverting
// Build, so the round-trip tests can compare it with the graph they stored.
// The rank table names the graph node behind each of the database's ids.
func LoadGraph(n *Network) (*graph.Graph, error) {
	b := graph.NewBuilder(n.D(), n.Directed())
	b.AddNodes(n.NumNodes())

	type edgeRec struct {
		u, v     graph.NodeID
		w        []float64
		facRef   uint64
		facCount int
		seen     bool
	}
	edges := make([]edgeRec, n.NumEdges())
	for r, v := range n.order {
		entries, err := n.Adjacency(graph.NodeID(r))
		if err != nil {
			return nil, err
		}
		for i := range entries {
			e := &entries[i]
			if !e.Forward {
				continue // undirected back-arc; the forward arc defines the edge
			}
			if int(e.Edge) >= len(edges) {
				return nil, fmt.Errorf("storage: edge %d out of range while loading", e.Edge)
			}
			edges[e.Edge] = edgeRec{
				u: v, v: n.order[e.Neighbor],
				w: e.W, facRef: e.FacRef, facCount: e.FacCount,
				seen: true,
			}
		}
	}
	type facRec struct {
		edge graph.EdgeID
		t    float64
		seen bool
	}
	facs := make([]facRec, n.NumFacilities())
	for id, rec := range edges {
		if !rec.seen {
			return nil, fmt.Errorf("storage: edge %d missing from all adjacency records", id)
		}
		b.AddEdge(rec.u, rec.v, rec.w)
		if rec.facCount == 0 {
			continue
		}
		fes, err := n.Facilities(rec.facRef, rec.facCount)
		if err != nil {
			return nil, err
		}
		for _, fe := range fes {
			if int(fe.ID) >= len(facs) {
				return nil, fmt.Errorf("storage: facility %d out of range while loading", fe.ID)
			}
			facs[fe.ID] = facRec{edge: graph.EdgeID(id), t: fe.T, seen: true}
		}
	}
	for id, rec := range facs {
		if !rec.seen {
			return nil, fmt.Errorf("storage: facility %d missing from all facility records", id)
		}
		b.AddFacility(rec.edge, rec.t)
	}
	return b.Build()
}
