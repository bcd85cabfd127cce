package core

import (
	"testing"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

func TestMultiSourceMeetingPoint(t *testing.T) {
	// Three friends on a path graph; the min-sum meeting facility must be
	// the middle one.
	topo := testnet.Path(7)
	pls := []gen.Placement{
		{Edge: 0, T: 0.5}, // near friend 1
		{Edge: 3, T: 0.0}, // in the middle
		{Edge: 5, T: 0.5}, // near friend 3
	}
	g, err := gen.Assemble(topo, testnet.UnitCosts(topo, 1), pls, false)
	if err != nil {
		t.Fatal(err)
	}
	locs := []graph.Location{
		{Edge: 0, T: 0},
		{Edge: 3, T: 0.5},
		{Edge: 5, T: 1},
	}
	agg := vec.NewWeighted(1, 1, 1)
	res, err := MultiSourceTopK(testnet.NewMemorySource(g), 0, locs, agg, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 1 || res.Facilities[0].ID != 1 {
		t.Errorf("meeting point = %v, want facility 1", ids(res))
	}
}

func TestMultiSourceValidation(t *testing.T) {
	topo := testnet.Path(3)
	g, err := gen.Assemble(topo, testnet.UnitCosts(topo, 2), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	src := testnet.NewMemorySource(g)
	loc := graph.Location{Edge: 0, T: 0.5}
	if _, err := MultiSourceSkyline(src, 0, nil, Options{}); err == nil {
		t.Error("empty location list accepted")
	}
	if _, err := MultiSourceSkyline(src, 5, []graph.Location{loc}, Options{}); err == nil {
		t.Error("bad cost index accepted")
	}
	if _, err := MultiSourceTopK(src, 0, []graph.Location{loc, loc}, vec.NewWeighted(1), 1, Options{}); err == nil {
		t.Error("aggregate/location dimensionality mismatch accepted")
	}
	if _, err := MultiSourceTopK(src, 0, []graph.Location{loc}, vec.NewWeighted(1), 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
}

// CEA sharing must also hold across multi-source expansions: the d query
// points traverse overlapping regions, so records are fetched once.
func TestMultiSourceCEAAccessBound(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		inst := testnet.Generate(seed, testnet.ShapeOf(seed))
		mem := testnet.NewMemorySource(inst.G)
		if _, err := MultiSourceSkyline(mem, inst.CostIdx, inst.Locs, Options{Engine: CEA}); err != nil {
			t.Fatal(err)
		}
		if mem.Count.Snapshot().Adjacency > int64(inst.G.NumNodes()) {
			t.Fatalf("%v: CEA fetched %d adjacency records for %d nodes", inst, mem.Count.Snapshot().Adjacency, inst.G.NumNodes())
		}
	}
}
