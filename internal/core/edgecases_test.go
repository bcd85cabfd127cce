package core

import (
	"testing"

	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// A facility at the exact query location has an all-zero cost vector and
// dominates everything else (unless tied).
func TestSkylineFacilityAtQuery(t *testing.T) {
	topo := gen.Path(4)
	pls := []gen.Placement{{Edge: 1, T: 0.5}, {Edge: 2, T: 0.25}}
	g, err := gen.Assemble(topo, gen.UnitCosts(topo, 3), pls, false)
	if err != nil {
		t.Fatal(err)
	}
	loc := graph.Location{Edge: 1, T: 0.5}
	for _, engine := range []Engine{LSA, CEA} {
		res, err := Skyline(expand.NewMemorySource(g), loc, Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Facilities) != 1 || res.Facilities[0].ID != 0 {
			t.Errorf("%v: skyline = %v, want only the co-located facility", engine, res.IDs())
		}
		for _, c := range res.Facilities[0].Costs {
			if !vec.IsUnknown(c) && c != 0 {
				t.Errorf("%v: co-located facility has nonzero cost %v", engine, res.Facilities[0].Costs)
			}
		}
	}
}

// Parallel edges between the same nodes (common in real road data: a
// motorway and a service road) must be handled as distinct edges. The two
// facilities here both sit at node 1 with exact-tie vectors (1, 1): under
// the library's distinct-value guarantee the skyline reports one of them
// (an unseen exact duplicate of the first pinned facility may be omitted —
// see the tie semantics in Skyline's doc comment), and never anything
// dominated.
func TestSkylineParallelEdges(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddNodes(2)
	fast := b.AddEdge(0, 1, vec.Of(1, 10))
	slow := b.AddEdge(0, 1, vec.Of(10, 1))
	f1 := b.AddFacility(fast, 1.0)
	f2 := b.AddFacility(slow, 1.0)
	g := b.MustBuild()
	loc := graph.Location{Edge: fast, T: 0}
	res, err := Skyline(expand.NewMemorySource(g), loc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) < 1 {
		t.Fatal("skyline empty")
	}
	for _, f := range res.Facilities {
		if f.ID != f1 && f.ID != f2 {
			t.Errorf("unexpected facility %d", f.ID)
		}
	}
	// Whichever representative is reported must carry the tied vector.
	want := testnet.AllCosts(g, loc)[res.Facilities[0].ID]
	if !want.Equal(vec.Of(1, 1)) {
		t.Errorf("representative vector = %v, want (1, 1)", want)
	}
}
