package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mcn/internal/expand"
	"mcn/internal/testsupport/testnet"
)

func TestNaiveSkylineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	for trial := 0; trial < 80; trial++ {
		inst := randomInstance(t, rng, trial%3 == 0)
		res, err := NaiveSkyline(expand.NewMemorySource(inst.g), inst.loc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := testnet.Skyline(inst.g, inst.loc)
		got := sortedIDs(res.Facilities)
		if len(want) == 0 {
			want = got[:0]
		}
		if len(got) == 0 {
			got = want[:0]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: naive skyline %v, oracle %v", trial, got, want)
		}
	}
}

func TestNaiveTopKMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 80; trial++ {
		inst := randomInstance(t, rng, false)
		agg := randomAggregate(rng, inst.g.D())
		k := 1 + rng.Intn(8)
		res, err := NaiveTopK(expand.NewMemorySource(inst.g), inst.loc, agg, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkTopKScores(t, inst, agg, k, res, "naive")
	}
}

// The naive baseline must read the whole network d times; LSA must read
// less on localised queries (this is the paper's core motivation).
func TestNaiveReadsEverything(t *testing.T) {
	inst := randomInstance(t, rand.New(rand.NewSource(402)), false)
	mem := expand.NewMemorySource(inst.g)
	if _, err := NaiveSkyline(mem, inst.loc, Options{}); err != nil {
		t.Fatal(err)
	}
	// Each of the d expansions must touch (almost) every node. Undirected
	// connected topologies make all nodes reachable.
	if !inst.g.Directed() {
		want := int64(inst.g.D() * inst.g.NumNodes())
		if mem.Count.Snapshot().Adjacency < want {
			t.Errorf("naive adjacency accesses = %d, want >= %d (d complete expansions)", mem.Count.Snapshot().Adjacency, want)
		}
	}
}

func TestNaiveTopKBadK(t *testing.T) {
	inst := randomInstance(t, rand.New(rand.NewSource(403)), false)
	agg := randomAggregate(rand.New(rand.NewSource(404)), inst.g.D())
	if _, err := NaiveTopK(expand.NewMemorySource(inst.g), inst.loc, agg, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestMaterializeAllVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	inst := randomInstance(t, rng, false)
	vectors, _, err := MaterializeAll(expand.NewMemorySource(inst.g), inst.loc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := testnet.AllCosts(inst.g, inst.loc)
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
