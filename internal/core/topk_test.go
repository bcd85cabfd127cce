package core

import (
	"testing"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

func TestTopKFixedExample(t *testing.T) {
	// Figure 1 scenario with f = 0.9·c_time + 0.1·c_toll: the fast tolled
	// warehouse must win top-1.
	b := graph.NewBuilder(2, false)
	q0 := b.AddNode(0, 0)
	n1 := b.AddNode(1, 0)
	n2 := b.AddNode(0, 1)
	e1 := b.AddEdge(q0, n1, vec.Of(10, 1))
	e2 := b.AddEdge(q0, n2, vec.Of(20, 0))
	p1 := b.AddFacility(e2, 1.0) // (20 min, 0 $)
	p2 := b.AddFacility(e1, 1.0) // (10 min, 1 $)
	_ = p1
	g := testnet.MustBuild(b)
	loc, err := graph.LocationAtNode(g, q0)
	if err != nil {
		t.Fatal(err)
	}
	agg := vec.NewWeighted(0.9, 0.1)
	res, err := TopK(testnet.NewMemorySource(g), loc, agg, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 1 || res.Facilities[0].ID != p2 {
		t.Errorf("top-1 = %v, want [%d]", ids(res), p2)
	}
}

func TestTopKLargerThanP(t *testing.T) {
	topo := testnet.Path(6)
	pls := []gen.Placement{{Edge: 0, T: 0.5}, {Edge: 4, T: 0.5}}
	g, err := gen.Assemble(topo, testnet.UnitCosts(topo, 2), pls, false)
	if err != nil {
		t.Fatal(err)
	}
	agg := vec.NewWeighted(0.5, 0.5)
	res, err := TopK(testnet.NewMemorySource(g), graph.Location{Edge: 2, T: 0.5}, agg, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 2 {
		t.Errorf("k > |P|: got %d facilities, want 2", len(res.Facilities))
	}
}

func TestTopKInvalidArgs(t *testing.T) {
	topo := testnet.Path(3)
	g, err := gen.Assemble(topo, testnet.UnitCosts(topo, 2), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	src := testnet.NewMemorySource(g)
	loc := graph.Location{Edge: 0, T: 0.5}
	if _, err := TopK(src, loc, vec.NewWeighted(1, 1), 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopK(src, loc, vec.NewWeighted(1), 1, Options{}); err == nil {
		t.Error("aggregate dimensionality mismatch accepted")
	}
}

func TestTopKCEAAccessBound(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		inst := testnet.Generate(seed, testnet.ShapeOf(seed))
		mem := testnet.NewMemorySource(inst.G)
		if _, err := TopK(mem, inst.Loc, inst.Agg, 4, Options{Engine: CEA}); err != nil {
			t.Fatal(err)
		}
		if mem.Count.Snapshot().Adjacency > int64(inst.G.NumNodes()) {
			t.Fatalf("%v: CEA fetched %d adjacency records for %d nodes", inst, mem.Count.Snapshot().Adjacency, inst.G.NumNodes())
		}
	}
}
