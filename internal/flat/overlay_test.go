package flat

import (
	"fmt"
	"math"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// Compile-time checks: every overlay view serves the full fast-path
// capability set — Source, dense id spaces, zero-copy records and the
// cost-overlay hook.
var (
	_ expand.Sized      = (*View)(nil)
	_ expand.ZeroCopy   = (*View)(nil)
	_ expand.EdgeCoster = (*View)(nil)
)

func overlayGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(2, false)
	n0 := b.AddNode(0, 0)
	n1 := b.AddNode(1, 0)
	n2 := b.AddNode(2, 0)
	e0 := b.AddEdge(n0, n1, vec.Of(2, 1))
	b.AddEdge(n1, n2, vec.Of(5, 3))
	b.AddFacility(e0, 0.5)
	return testnet.MustBuild(b)
}

// scaledRows profiles edge e of g on breakpoints {10, 20}: k+2 times its
// base costs during segment k. costAt gives the same costs at any instant.
func scaledRows(t *testing.T, ov *Overlay, g *graph.Graph, e graph.EdgeID) *Rows {
	t.Helper()
	w := g.Edge(e).W
	r, err := ov.NewRows([]float64{10, 20}, append(w.Scale(2), w.Scale(3)...))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// costAt is the rule scaledRows encodes, for profiled edges.
func costAt(g *graph.Graph, e graph.EdgeID, profiled bool, at float64) vec.Costs {
	w := g.Edge(e).W
	switch {
	case !profiled || at < 10:
		return w
	case at < 20:
		return w.Scale(2)
	default:
		return w.Scale(3)
	}
}

func TestOverlayIntervalCosts(t *testing.T) {
	g := overlayGraph(t)
	ov := NewOverlay(Compile(g))
	rows := make([]*Rows, g.NumEdges())
	rows[0] = scaledRows(t, ov, g, 0)
	// Before, on and between the breakpoints, and after the last.
	for _, at := range []float64{math.Inf(-1), 0, 10, 15, 20, 25} {
		v := ov.View(rows, at)
		for e := 0; e < g.NumEdges(); e++ {
			id := graph.EdgeID(e)
			want := costAt(g, id, rows[e] != nil, at)
			for i := 0; i < g.D(); i++ {
				if got := v.EdgeCost(id, i); got != want[i] {
					t.Errorf("t=%g EdgeCost(%d, %d) = %g, want %g", at, e, i, got, want[i])
				}
			}
			info, err := v.EdgeInfo(id)
			if err != nil {
				t.Fatal(err)
			}
			if !info.W.Equal(want) {
				t.Errorf("t=%g edge %d: EdgeInfo.W %v, want %v", at, e, info.W, want)
			}
			base, err := ov.Base().EdgeInfo(id)
			if err != nil {
				t.Fatal(err)
			}
			if info.U != base.U || info.V != base.V || info.FacRef != base.FacRef || info.FacCount != base.FacCount {
				t.Errorf("t=%g edge %d: topology fields diverge from base", at, e)
			}
		}
	}
	// Shared topology: every view's adjacency rows are the same backing
	// slices as the base compilation's.
	v := ov.View(rows, 15)
	for n := 0; n < g.NumNodes(); n++ {
		baseRows, err := ov.Base().Adjacency(graph.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		viewRows, err := v.Adjacency(graph.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		if len(baseRows) != len(viewRows) {
			t.Fatalf("node %d: row lengths differ", n)
		}
		if len(baseRows) > 0 && &baseRows[0] != &viewRows[0] {
			t.Fatalf("node %d: view adjacency is not the shared base slice", n)
		}
	}
}

func TestOverlayRejectsBadCosts(t *testing.T) {
	ov := NewOverlay(Compile(overlayGraph(t)))
	for name, row := range map[string]vec.Costs{
		"wrong-dim": vec.Of(1),
		"negative":  vec.Of(-1, 1),
		"unknown":   vec.New(2),
	} {
		if _, err := ov.NewRows([]float64{1, 2}, append(vec.Of(1, 1), row...)); err == nil {
			t.Errorf("%s cost row accepted", name)
		}
	}
	if _, err := ov.NewRows(nil, nil); err == nil {
		t.Error("rows without breakpoints accepted")
	}
}

// Queries over an overlay view must match queries over a materialised graph
// carrying the same scaled costs — the view is a full expand.Source, so the
// core algorithms (both engines, pooled scratch, shrinking-stage filters)
// must not be able to tell the two apart.
func TestOverlayQueryEquivalence(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 250, Facilities: 40, Clusters: 3, D: 3, Queries: 3,
		Seed: 9, IntegerCosts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := inst.Graph
	ov := NewOverlay(Compile(g))
	rows := make([]*Rows, g.NumEdges())
	for e := 0; e < g.NumEdges(); e += 3 {
		rows[e] = scaledRows(t, ov, g, graph.EdgeID(e))
	}
	agg := vec.NewWeighted(1, 0.5, 0.25)
	for _, at := range []float64{0, 10, 15, 20, 30} {
		// Reference: the same scaled costs baked into a fresh graph.
		b := graph.NewBuilder(g.D(), g.Directed())
		for v := 0; v < g.NumNodes(); v++ {
			node := g.Node(graph.NodeID(v))
			b.AddNode(node.X, node.Y)
		}
		for e := 0; e < g.NumEdges(); e++ {
			edge := g.Edge(graph.EdgeID(e))
			b.AddEdge(edge.U, edge.V, costAt(g, graph.EdgeID(e), rows[e] != nil, at))
		}
		for f := 0; f < g.NumFacilities(); f++ {
			fac := g.Facility(graph.FacilityID(f))
			b.AddFacility(fac.Edge, fac.T)
		}
		ref := testnet.NewMemorySource(testnet.MustBuild(b))

		view := ov.View(rows, at)
		for qi, loc := range inst.Queries {
			wantSky, err := core.Skyline(ref, loc, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantTop, err := core.TopK(ref, loc, agg, 4, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []core.Engine{core.LSA, core.CEA} {
				gotSky, err := core.Skyline(&view, loc, core.Options{Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				sameFacilities(t, fmt.Sprintf("t=%g q%d skyline %v", at, qi, eng),
					gotSky.Facilities, wantSky.Facilities)
				gotTop, err := core.TopK(&view, loc, agg, 4, core.Options{Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				sameFacilities(t, fmt.Sprintf("t=%g q%d topk %v", at, qi, eng),
					gotTop.Facilities, wantTop.Facilities)
			}
		}
	}
}

func sameFacilities(t *testing.T, label string, got, want []core.Facility) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d facilities, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: result %d id %d, want %d", label, i, got[i].ID, want[i].ID)
		}
		if !got[i].Costs.Equal(want[i].Costs) {
			t.Fatalf("%s: result %d (facility %d) costs %v, want %v",
				label, i, got[i].ID, got[i].Costs, want[i].Costs)
		}
		if got[i].Score != want[i].Score {
			t.Fatalf("%s: result %d (facility %d) score %g, want %g",
				label, i, got[i].ID, got[i].Score, want[i].Score)
		}
	}
}

// A tracked view records each profiled edge its cost lookups read, once and
// in first-read order, and never an unprofiled one; Unchanged compares the
// recorded edges' effective rows, not their segment numbers.
func TestViewTracksProfiledReads(t *testing.T) {
	g := overlayGraph(t)
	ov := NewOverlay(Compile(g))
	rows := make([]*Rows, g.NumEdges())
	rows[0] = scaledRows(t, ov, g, 0)
	var r Reads
	v := ov.View(rows, 12)
	v.Track(&r)
	v.EdgeCost(1, 0)
	if _, err := v.EdgeInfo(1); err != nil {
		t.Fatal(err)
	}
	if len(r.edges) != 0 || !v.Unchanged(25) {
		t.Fatalf("unprofiled reads recorded %v", r.edges)
	}
	v.EdgeCost(0, 1)
	v.EdgeCost(0, 0)
	if _, err := v.EdgeInfo(0); err != nil {
		t.Fatal(err)
	}
	if len(r.edges) != 1 || r.edges[0] != 0 {
		t.Fatalf("recorded %v, want [0]", r.edges)
	}
	for at, want := range map[float64]bool{10: true, 19.5: true, 20: false, 5: false} {
		if got := v.Unchanged(at); got != want {
			t.Errorf("Unchanged(%g) from 12 = %v, want %v", at, got, want)
		}
	}
	// Re-tracking empties the set; a repeated segment compares equal.
	w := g.Edge(0).W
	repeat, err := ov.NewRows([]float64{10, 20}, append(w.Scale(2), w.Scale(2)...))
	if err != nil {
		t.Fatal(err)
	}
	rows[0] = repeat
	v = ov.View(rows, 12)
	v.Track(&r)
	if len(r.edges) != 0 {
		t.Fatalf("Track kept %v", r.edges)
	}
	v.EdgeCost(0, 0)
	if !v.Unchanged(25) || v.Unchanged(5) {
		t.Error("a repeated segment must compare unchanged and the base row changed")
	}
}

// Binding a view plus record access must be allocation-free: a view is a
// value over the shared arrays, whatever the instant, and a warm read set
// records without allocating.
func TestOverlayAccessAllocFree(t *testing.T) {
	g := overlayGraph(t)
	ov := NewOverlay(Compile(g))
	rows := make([]*Rows, g.NumEdges())
	rows[0] = scaledRows(t, ov, g, 0)
	var r Reads
	allocs := testing.AllocsPerRun(100, func() {
		for _, at := range []float64{0, 10, 15, 20} {
			v := ov.View(rows, at)
			if at == 15 {
				v.Track(&r)
			}
			if _, err := v.Adjacency(0); err != nil {
				t.Fatal(err)
			}
			for e := 0; e < g.NumEdges(); e++ {
				if _, err := v.EdgeInfo(graph.EdgeID(e)); err != nil {
					t.Fatal(err)
				}
				_ = v.EdgeCost(graph.EdgeID(e), 1)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("view binding + record access allocates %.0f/run, want 0", allocs)
	}
}
