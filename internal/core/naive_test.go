package core

import (
	"math"
	"testing"

	"mcn/internal/expand"
	"mcn/internal/testsupport/testnet"
)

// The naive baseline must read the whole network d times; LSA must read
// less on localised queries (this is the paper's core motivation).
func TestNaiveReadsEverything(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		inst := testnet.Generate(seed, testnet.ShapeOf(seed))
		mem := expand.NewMemorySource(inst.G)
		if _, err := NaiveSkyline(mem, inst.Loc, Options{}); err != nil {
			t.Fatal(err)
		}
		// Each of the d expansions must settle every node the query
		// location reaches.
		reached := 0
		for _, c := range testnet.NodeCosts(inst.G, inst.Loc, 0) {
			if !math.IsInf(c, 1) {
				reached++
			}
		}
		if want := int64(inst.G.D() * reached); mem.Count.Snapshot().Adjacency < want {
			t.Errorf("%v: naive adjacency accesses = %d, want >= %d (d complete expansions)", inst, mem.Count.Snapshot().Adjacency, want)
		}
	}
}

func TestNaiveTopKBadK(t *testing.T) {
	inst := testnet.Generate(3, testnet.Shape{D: 3})
	if _, err := NaiveTopK(expand.NewMemorySource(inst.G), inst.Loc, inst.Agg, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestMaterializeAllVectors(t *testing.T) {
	inst := testnet.Generate(3, testnet.Shape{D: 3})
	vectors, _, err := MaterializeAll(expand.NewMemorySource(inst.G), inst.Loc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := testnet.AllCosts(inst.G, inst.Loc)
	for id, v := range vectors {
		for i := range v {
			want := oracle[id][i]
			if math.IsInf(v[i], 1) && math.IsInf(want, 1) {
				continue
			}
			if math.Abs(v[i]-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("facility %d cost %d = %g, oracle %g", id, i, v[i], want)
			}
		}
	}
}
