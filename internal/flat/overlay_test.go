package flat

import (
	"fmt"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
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
	return b.MustBuild()
}

func TestOverlayIntervalCosts(t *testing.T) {
	g := overlayGraph(t)
	// Interval k scales every cost by k+1.
	ov, err := NewOverlay(Compile(g), 3, func(k int, e graph.EdgeID) vec.Costs {
		w := g.Edge(e).W
		out := make(vec.Costs, len(w))
		for i := range w {
			out[i] = w[i] * float64(k+1)
		}
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	if ov.NumIntervals() != 3 {
		t.Fatalf("NumIntervals = %d, want 3", ov.NumIntervals())
	}
	for k := 0; k < 3; k++ {
		v := ov.Interval(k)
		for e := 0; e < g.NumEdges(); e++ {
			id := graph.EdgeID(e)
			for i := 0; i < g.D(); i++ {
				want := g.Edge(id).W[i] * float64(k+1)
				if got := v.EdgeCost(id, i); got != want {
					t.Errorf("interval %d EdgeCost(%d, %d) = %g, want %g", k, e, i, got, want)
				}
			}
			info, err := v.EdgeInfo(id)
			if err != nil {
				t.Fatal(err)
			}
			wc, err := v.EdgeCosts(id)
			if err != nil {
				t.Fatal(err)
			}
			if !info.W.Equal(wc) {
				t.Errorf("interval %d edge %d: EdgeInfo.W %v != EdgeCosts %v", k, e, info.W, wc)
			}
			base, err := ov.Base().EdgeInfo(id)
			if err != nil {
				t.Fatal(err)
			}
			if info.U != base.U || info.V != base.V || info.FacRef != base.FacRef || info.FacCount != base.FacCount {
				t.Errorf("interval %d edge %d: topology fields diverge from base", k, e)
			}
		}
	}
	// Shared topology: every view's adjacency rows are the same backing
	// slices as the base compilation's.
	for v := 0; v < g.NumNodes(); v++ {
		baseRows, err := ov.Base().Adjacency(graph.NodeID(v))
		if err != nil {
			t.Fatal(err)
		}
		viewRows, err := ov.Interval(2).Adjacency(graph.NodeID(v))
		if err != nil {
			t.Fatal(err)
		}
		if len(baseRows) != len(viewRows) {
			t.Fatalf("node %d: row lengths differ", v)
		}
		if len(baseRows) > 0 && &baseRows[0] != &viewRows[0] {
			t.Fatalf("node %d: view adjacency is not the shared base slice", v)
		}
	}
}

func TestOverlayRejectsBadCosts(t *testing.T) {
	g := overlayGraph(t)
	for name, costsAt := range map[string]func(int, graph.EdgeID) vec.Costs{
		"wrong-dim": func(int, graph.EdgeID) vec.Costs { return vec.Of(1) },
		"negative":  func(int, graph.EdgeID) vec.Costs { return vec.Of(-1, 1) },
		"unknown":   func(int, graph.EdgeID) vec.Costs { return vec.New(2) },
	} {
		if _, err := NewOverlay(Compile(g), 1, costsAt); err == nil {
			t.Errorf("%s cost vector accepted", name)
		}
	}
	if _, err := NewOverlay(Compile(g), 0, nil); err == nil {
		t.Error("zero intervals accepted")
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
	scale := func(k int, e graph.EdgeID) vec.Costs {
		w := g.Edge(e).W
		out := make(vec.Costs, len(w))
		for i := range w {
			out[i] = w[i] * float64(k+1)
		}
		return out
	}
	ov, err := NewOverlay(Compile(g), 3, scale)
	if err != nil {
		t.Fatal(err)
	}
	agg := vec.NewWeighted(1, 0.5, 0.25)
	for k := 0; k < ov.NumIntervals(); k++ {
		// Reference: the same scaled costs baked into a fresh graph.
		b := graph.NewBuilder(g.D(), g.Directed())
		for v := 0; v < g.NumNodes(); v++ {
			node := g.Node(graph.NodeID(v))
			b.AddNode(node.X, node.Y)
		}
		for e := 0; e < g.NumEdges(); e++ {
			edge := g.Edge(graph.EdgeID(e))
			b.AddEdge(edge.U, edge.V, scale(k, graph.EdgeID(e)))
		}
		for f := 0; f < g.NumFacilities(); f++ {
			fac := g.Facility(graph.FacilityID(f))
			b.AddFacility(fac.Edge, fac.T)
		}
		ref := expand.NewMemorySource(b.MustBuild())

		view := ov.Interval(k)
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
				gotSky, err := core.Skyline(view, loc, core.Options{Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				sameFacilities(t, fmt.Sprintf("interval %d q%d skyline %v", k, qi, eng),
					gotSky.Facilities, wantSky.Facilities)
				gotTop, err := core.TopK(view, loc, agg, 4, core.Options{Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				sameFacilities(t, fmt.Sprintf("interval %d q%d topk %v", k, qi, eng),
					gotTop.Facilities, wantTop.Facilities)
			}
		}
	}
}

// Interval resolution plus record access must be allocation-free: the whole
// point of the overlay is that switching intervals is a pointer read.
func TestOverlayAccessAllocFree(t *testing.T) {
	g := overlayGraph(t)
	ov, err := NewOverlay(Compile(g), 4, func(k int, e graph.EdgeID) vec.Costs { return g.Edge(e).W })
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for k := 0; k < ov.NumIntervals(); k++ {
			v := ov.Interval(k)
			if _, err := v.Adjacency(0); err != nil {
				t.Fatal(err)
			}
			if _, err := v.EdgeInfo(0); err != nil {
				t.Fatal(err)
			}
			_ = v.EdgeCost(0, 1)
		}
	})
	if allocs != 0 {
		t.Fatalf("interval switch + record access allocates %.0f/run, want 0", allocs)
	}
}
