package testnet

import (
	"slices"
	"testing"

	"mcn/internal/graph"
	"mcn/internal/vec"
)

// sourceGraph is n0 --e0 (1,2) [f0 at 0.25, f1 at 0.75]-- n1 --e1 (3,4)-- n2.
func sourceGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(2, false)
	n := AddNodes(b, 3)
	e0 := b.AddEdge(n, n+1, vec.Of(1, 2))
	b.AddEdge(n+1, n+2, vec.Of(3, 4))
	b.AddFacility(e0, 0.25)
	b.AddFacility(e0, 0.75)
	return MustBuild(b)
}

// MemorySource serves every record as the graph holds it: arcs with their
// edge's costs and the edge id as the facility reference (NoFacRef on an
// edge without facilities), facilities with their offsets, and each edge's
// ends. An id outside the graph is an error.
func TestMemorySourceRecords(t *testing.T) {
	g := sourceGraph(t)
	m := NewMemorySource(g)
	if m.Graph() != g || m.D() != 2 || m.Directed() {
		t.Fatalf("Graph, D, Directed = %p, %d, %v; want %p, 2, false", m.Graph(), m.D(), m.Directed(), g)
	}

	type arc struct {
		neighbor graph.NodeID
		forward  bool
		w        vec.Costs
		ref      uint64
		count    int
	}
	wantArcs := map[graph.NodeID]map[graph.EdgeID]arc{
		0: {0: {1, true, vec.Of(1, 2), 0, 2}},
		1: {0: {0, false, vec.Of(1, 2), 0, 2}, 1: {2, true, vec.Of(3, 4), graph.NoFacRef, 0}},
		2: {1: {1, false, vec.Of(3, 4), graph.NoFacRef, 0}},
	}
	for v, want := range wantArcs {
		entries, err := m.Adjacency(v)
		if err != nil || len(entries) != len(want) {
			t.Fatalf("Adjacency(%d) = %+v, %v; want %d arcs", v, entries, err, len(want))
		}
		for _, a := range entries {
			w, ok := want[a.Edge]
			if !ok || a.Neighbor != w.neighbor || a.Forward != w.forward || !slices.Equal(a.W, w.w) || a.FacRef != w.ref || a.FacCount != w.count {
				t.Errorf("Adjacency(%d) arc %+v; want %+v on edge %d", v, a, w, a.Edge)
			}
		}
	}

	facs, err := m.Facilities(0, 2)
	if err != nil || len(facs) != 2 || facs[0] != (graph.FacEntry{ID: 0, T: 0.25}) || facs[1] != (graph.FacEntry{ID: 1, T: 0.75}) {
		t.Errorf("Facilities(0, 2) = %+v, %v", facs, err)
	}
	if facs, err := m.Facilities(graph.NoFacRef, 0); facs != nil || err != nil {
		t.Errorf("Facilities(NoFacRef) = %+v, %v; want nothing", facs, err)
	}
	for p := range graph.FacilityID(2) {
		if e, err := m.FacilityEdge(p); e != 0 || err != nil {
			t.Errorf("FacilityEdge(%d) = %d, %v; want edge 0", p, e, err)
		}
	}
	info, err := m.EdgeInfo(0)
	if err != nil || info.U != 0 || info.V != 1 || !slices.Equal(info.W, vec.Of(1, 2)) || info.FacRef != 0 || info.FacCount != 2 {
		t.Errorf("EdgeInfo(0) = %+v, %v", info, err)
	}
	if info, err := m.EdgeInfo(1); err != nil || info.U != 1 || info.V != 2 || info.FacRef != graph.NoFacRef || info.FacCount != 0 {
		t.Errorf("EdgeInfo(1) = %+v, %v", info, err)
	}

	if _, err := m.Adjacency(3); err == nil {
		t.Error("Adjacency of node 3 succeeded on a 3-node graph")
	}
	if _, err := m.Facilities(2, 1); err == nil {
		t.Error("Facilities of edge 2 succeeded on a 2-edge graph")
	}
	if _, err := m.FacilityEdge(2); err == nil {
		t.Error("FacilityEdge of facility 2 succeeded with 2 facilities")
	}
	if _, err := m.EdgeInfo(2); err == nil {
		t.Error("EdgeInfo of edge 2 succeeded on a 2-edge graph")
	}
}

// Each call that reads a record counts once under its own counter; a call
// that reads nothing (no facility reference, an id out of range) counts
// nothing. Snapshot reads the counters and Total sums them.
func TestMemorySourceCounts(t *testing.T) {
	m := NewMemorySource(sourceGraph(t))
	m.Adjacency(0)
	m.Adjacency(1)
	m.Adjacency(7)
	m.Facilities(0, 2)
	m.Facilities(graph.NoFacRef, 0)
	m.FacilityEdge(1)
	m.FacilityEdge(1)
	m.FacilityEdge(9)
	m.EdgeInfo(1)
	m.EdgeInfo(9)
	got := m.Count.Snapshot()
	if want := (Counter{Adjacency: 2, Facilities: 1, EdgeInfo: 1, FacilityEdge: 2}); got != want {
		t.Fatalf("counts %+v; want %+v", got, want)
	}
	if got.Total() != 6 {
		t.Fatalf("Total = %d; want 6", got.Total())
	}
}
