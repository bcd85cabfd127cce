package core

import (
	"testing"

	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

func TestIncrementalCEA(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		inst := testnet.Generate(seed, testnet.ShapeOf(seed))
		mem := expand.NewMemorySource(inst.G)
		it, err := NewTopKIterator(mem, inst.Loc, inst.Agg, Options{Engine: CEA})
		if err != nil {
			t.Fatal(err)
		}
		// Pull three results.
		for i := 0; i < 3; i++ {
			if _, ok, err := it.Next(); err != nil || !ok {
				break
			}
		}
		if mem.Count.Snapshot().Adjacency > int64(inst.G.NumNodes()) {
			t.Fatalf("%v: incremental CEA fetched %d adjacency records for %d nodes",
				inst, mem.Count.Snapshot().Adjacency, inst.G.NumNodes())
		}
	}
}

func TestIncrementalEmpty(t *testing.T) {
	topo := gen.Path(4)
	g, err := gen.Assemble(topo, gen.UnitCosts(topo, 2), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewTopKIterator(expand.NewMemorySource(g), graph.Location{Edge: 0, T: 0.5}, vec.NewWeighted(1, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || ok {
		t.Errorf("empty network: Next = ok=%v err=%v, want exhausted", ok, err)
	}
	// Subsequent calls stay exhausted.
	if _, ok, _ := it.Next(); ok {
		t.Error("exhausted iterator revived")
	}
}

func TestIncrementalDimMismatch(t *testing.T) {
	topo := gen.Path(3)
	g, err := gen.Assemble(topo, gen.UnitCosts(topo, 2), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTopKIterator(expand.NewMemorySource(g), graph.Location{Edge: 0, T: 0}, vec.NewWeighted(1), Options{}); err == nil {
		t.Error("dimensionality mismatch accepted")
	}
}

// Incremental stats must accumulate.
func TestIncrementalStats(t *testing.T) {
	inst := testnet.Generate(1, testnet.Shape{D: 3})
	it, err := NewTopKIterator(expand.NewMemorySource(inst.G), inst.Loc, inst.Agg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Skip("instance has no reachable facilities")
	}
	s := it.Stats()
	if s.Pops == 0 {
		t.Error("stats should record pops after a successful Next")
	}
}
