package graph

import (
	"math/rand"
	"testing"

	"mcn/internal/vec"
)

// line builds the 3-node path a—b—c with 2 cost types and one facility on
// each edge.
func line(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(2, false)
	a := b.AddNode(0, 0)
	m := b.AddNode(1, 0)
	c := b.AddNode(2, 0)
	e0 := b.AddEdge(a, m, vec.Of(1, 2))
	e1 := b.AddEdge(m, c, vec.Of(3, 4))
	b.AddFacility(e0, 0.5)
	b.AddFacility(e1, 0.25)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := line(t)
	if g.D() != 2 {
		t.Errorf("D = %d, want 2", g.D())
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 || g.NumFacilities() != 2 {
		t.Errorf("counts = (%d,%d,%d), want (3,2,2)", g.NumNodes(), g.NumEdges(), g.NumFacilities())
	}
	if g.Directed() {
		t.Error("graph should be undirected")
	}
}

func TestUndirectedAdjacency(t *testing.T) {
	g := line(t)
	if got := g.Degree(0); got != 1 {
		t.Errorf("degree(0) = %d, want 1", got)
	}
	if got := g.Degree(1); got != 2 {
		t.Errorf("degree(1) = %d, want 2", got)
	}
	// Arc from node 1 back to node 0 must be marked backward (node 1 is the
	// V end of edge 0).
	var found bool
	for _, a := range g.Arcs(1) {
		if a.Neighbor == 0 {
			found = true
			if a.Forward {
				t.Error("arc 1->0 should be backward on edge 0")
			}
			if a.Edge != 0 {
				t.Errorf("arc 1->0 edge = %d, want 0", a.Edge)
			}
		}
	}
	if !found {
		t.Fatal("missing reverse arc 1->0")
	}
}

func TestDirectedAdjacency(t *testing.T) {
	b := NewBuilder(1, true)
	u := b.AddNode(0, 0)
	v := b.AddNode(1, 0)
	b.AddEdge(u, v, vec.Of(5))
	g := b.MustBuild()
	if g.Degree(u) != 1 {
		t.Errorf("out-degree(u) = %d, want 1", g.Degree(u))
	}
	if g.Degree(v) != 0 {
		t.Errorf("out-degree(v) = %d, want 0 in directed graph", g.Degree(v))
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("endpoint out of range", func(t *testing.T) {
		b := NewBuilder(1, false)
		b.AddNode(0, 0)
		b.AddEdge(0, 5, vec.Of(1))
		if _, err := b.Build(); err == nil {
			t.Error("want error for out-of-range endpoint")
		}
	})
	t.Run("self loop", func(t *testing.T) {
		b := NewBuilder(1, false)
		b.AddNode(0, 0)
		b.AddEdge(0, 0, vec.Of(1))
		if _, err := b.Build(); err == nil {
			t.Error("want error for self-loop")
		}
	})
	t.Run("wrong dimensionality", func(t *testing.T) {
		b := NewBuilder(2, false)
		b.AddNode(0, 0)
		b.AddNode(1, 0)
		b.AddEdge(0, 1, vec.Of(1))
		if _, err := b.Build(); err == nil {
			t.Error("want error for wrong cost dimensionality")
		}
	})
	t.Run("negative cost", func(t *testing.T) {
		b := NewBuilder(1, false)
		b.AddNode(0, 0)
		b.AddNode(1, 0)
		b.AddEdge(0, 1, vec.Of(-1))
		if _, err := b.Build(); err == nil {
			t.Error("want error for negative cost")
		}
	})
	t.Run("facility fraction out of range", func(t *testing.T) {
		b := NewBuilder(1, false)
		b.AddNode(0, 0)
		b.AddNode(1, 0)
		e := b.AddEdge(0, 1, vec.Of(1))
		b.AddFacility(e, 1.5)
		if _, err := b.Build(); err == nil {
			t.Error("want error for fraction > 1")
		}
	})
	t.Run("facility edge out of range", func(t *testing.T) {
		b := NewBuilder(1, false)
		b.AddFacility(3, 0.5)
		if _, err := b.Build(); err == nil {
			t.Error("want error for out-of-range facility edge")
		}
	})
}

func TestEdgeFacilitiesSorted(t *testing.T) {
	b := NewBuilder(1, false)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	e := b.AddEdge(0, 1, vec.Of(1))
	b.AddFacility(e, 0.9)
	b.AddFacility(e, 0.1)
	b.AddFacility(e, 0.5)
	g := b.MustBuild()
	facs := g.EdgeFacilities(e)
	if len(facs) != 3 {
		t.Fatalf("len = %d, want 3", len(facs))
	}
	prev := -1.0
	for _, f := range facs {
		if g.Facility(f).T < prev {
			t.Fatalf("facilities not sorted by T: %v", facs)
		}
		prev = g.Facility(f).T
	}
}

func TestPartialFrom(t *testing.T) {
	if got := PartialFrom(true, 0.3); got != 0.3 {
		t.Errorf("forward partial = %g, want 0.3", got)
	}
	if got := PartialFrom(false, 0.3); got != 0.7 {
		t.Errorf("backward partial = %g, want 0.7", got)
	}
}

// AddNodes appends n nodes at the origin and returns the first new id.
func (b *Builder) AddNodes(n int) NodeID {
	first := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, make([]Node, n)...)
	return first
}

// MustBuild builds b and panics on a builder error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Property: in an undirected graph every edge contributes exactly two arcs
// and total arc count is 2|E|; forward/backward flags are consistent.
func TestArcsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		b := NewBuilder(1, false)
		b.AddNodes(n)
		m := 1 + rng.Intn(60)
		for i := 0; i < m; i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				v = (v + 1) % NodeID(n)
			}
			b.AddEdge(u, v, vec.Of(float64(rng.Intn(10))))
		}
		g := b.MustBuild()
		total := 0
		for v := NodeID(0); int(v) < n; v++ {
			for _, a := range g.Arcs(v) {
				total++
				e := g.Edge(a.Edge)
				if a.Forward {
					if e.U != v || e.V != a.Neighbor {
						t.Fatalf("forward arc inconsistent: arc %+v edge %+v tail %d", a, e, v)
					}
				} else {
					if e.V != v || e.U != a.Neighbor {
						t.Fatalf("backward arc inconsistent: arc %+v edge %+v tail %d", a, e, v)
					}
				}
			}
		}
		if total != 2*g.NumEdges() {
			t.Fatalf("arc total = %d, want %d", total, 2*g.NumEdges())
		}
	}
}

func TestLocations(t *testing.T) {
	g := line(t)
	if _, err := LocationAt(g, 0, 0.5); err != nil {
		t.Errorf("valid location rejected: %v", err)
	}
	if _, err := LocationAt(g, 9, 0.5); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := LocationAt(g, 0, -0.1); err == nil {
		t.Error("negative fraction accepted")
	}
	loc, err := LocationAtNode(g, 1)
	if err != nil {
		t.Fatalf("LocationAtNode: %v", err)
	}
	// Location must coincide with node 1: either T=1 on edge 0 or T=0 on edge 1.
	e := g.Edge(loc.Edge)
	at := e.U
	if loc.T == 1 {
		at = e.V
	} else if loc.T != 0 {
		t.Fatalf("node location fraction = %g, want 0 or 1", loc.T)
	}
	if at != 1 {
		t.Errorf("location lands on node %d, want 1", at)
	}
}

func TestLocationAtNodeDirectedSink(t *testing.T) {
	b := NewBuilder(1, true)
	u := b.AddNode(0, 0)
	v := b.AddNode(1, 0)
	b.AddEdge(u, v, vec.Of(1))
	g := b.MustBuild()
	// v has no outgoing arcs but lies at the V end of edge 0.
	loc, err := LocationAtNode(g, v)
	if err != nil {
		t.Fatalf("LocationAtNode(sink): %v", err)
	}
	if loc.Edge != 0 || loc.T != 1 {
		t.Errorf("sink location = %+v, want edge 0 T=1", loc)
	}
}

func TestLocationAtIsolatedNode(t *testing.T) {
	b := NewBuilder(1, false)
	b.AddNode(0, 0)
	g := b.MustBuild()
	if _, err := LocationAtNode(g, 0); err == nil {
		t.Error("isolated node must not host a location")
	}
}
