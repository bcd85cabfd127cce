package mcn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/testsupport/testnet"
)

func TestNearestMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1100))
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(3)
		topo := testnet.RandomConnected(3+rng.Intn(25), rng.Intn(10), rng)
		costs := gen.AssignCosts(topo, d, gen.Independent, rng)
		pls := gen.UniformFacilities(topo, 1+rng.Intn(15), rng)
		g, err := gen.Assemble(topo, costs, pls, false)
		if err != nil {
			t.Fatal(err)
		}
		net := FromGraph(g)
		loc := Location{Edge: EdgeID(rng.Intn(g.NumEdges())), T: rng.Float64()}
		ci := rng.Intn(d)
		k := 1 + rng.Intn(6)

		got, err := net.Nearest(ctx, loc, ci, k)
		if err != nil {
			t.Fatal(err)
		}
		oracle := testnet.FacilityCosts(g, loc, ci)
		var want []float64
		for _, c := range oracle {
			if !math.IsInf(c, 1) {
				want = append(want, c)
			}
		}
		sort.Float64s(want)
		if k < len(want) {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i, f := range got {
			if math.Abs(f.Score-want[i]) > 1e-9*(1+want[i]) {
				t.Fatalf("trial %d: NN %d cost %g, oracle %g", trial, i, f.Score, want[i])
			}
			if math.Abs(f.Costs[ci]-f.Score) > 1e-12 {
				t.Fatalf("trial %d: cost vector inconsistent with score", trial)
			}
		}
	}
}

func TestNearestErrors(t *testing.T) {
	topo := testnet.Path(3)
	g, err := gen.Assemble(topo, testnet.UnitCosts(topo, 2), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	net := FromGraph(g)
	loc := Location{Edge: 0, T: 0.5}
	if _, err := net.Nearest(ctx, loc, 5, 1); err == nil {
		t.Error("out-of-range cost index accepted")
	}
	if _, err := net.Nearest(ctx, loc, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	got, err := net.Nearest(ctx, loc, 0, 3)
	if err != nil || len(got) != 0 {
		t.Errorf("no facilities: got %v, %v", got, err)
	}
}
