package core

import (
	"math"
	"math/rand"
	"testing"

	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

func randomAggregate(rng *rand.Rand, d int) vec.Aggregate {
	coef := make([]float64, d)
	for i := range coef {
		coef[i] = rng.Float64()
	}
	return vec.NewWeighted(coef...)
}

// checkTopKScores compares the result's score multiset to the oracle's k
// smallest scores (tie resolution is arbitrary per the paper, so ids may
// legitimately differ).
func checkTopKScores(t *testing.T, inst instance, agg vec.Aggregate, k int, res *Result, label string) {
	t.Helper()
	want := testnet.TopKScores(inst.g, inst.loc, agg, k)
	if len(res.Facilities) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(res.Facilities), len(want))
	}
	for i, f := range res.Facilities {
		w := want[i]
		if math.IsInf(f.Score, 1) && math.IsInf(w, 1) {
			continue
		}
		if math.Abs(f.Score-w) > 1e-9*(1+math.Abs(w)) {
			t.Fatalf("%s: score[%d] = %g, want %g (got %v want %v)", label, i, f.Score, w, scoresOf(res), want)
		}
	}
	// Scores must also be internally consistent with the oracle's vectors.
	oracle := testnet.AllCosts(inst.g, inst.loc)
	for _, f := range res.Facilities {
		actual := agg.Score(oracle[f.ID])
		if math.IsInf(actual, 1) && math.IsInf(f.Score, 1) {
			continue
		}
		if math.Abs(actual-f.Score) > 1e-9*(1+math.Abs(actual)) {
			t.Fatalf("%s: facility %d reported score %g but oracle vector gives %g", label, f.ID, f.Score, actual)
		}
	}
}

func scoresOf(res *Result) []float64 {
	out := make([]float64, len(res.Facilities))
	for i, f := range res.Facilities {
		out[i] = f.Score
	}
	return out
}

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
	g := b.MustBuild()
	loc, err := graph.LocationAtNode(g, q0)
	if err != nil {
		t.Fatal(err)
	}
	agg := vec.NewWeighted(0.9, 0.1)
	res, err := TopK(expand.NewMemorySource(g), loc, agg, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 1 || res.Facilities[0].ID != p2 {
		t.Errorf("top-1 = %v, want [%d]", res.IDs(), p2)
	}
}

func TestTopKMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for trial := 0; trial < 150; trial++ {
		inst := randomInstance(t, rng, trial%4 == 0)
		d := inst.g.D()
		agg := randomAggregate(rng, d)
		k := 1 + rng.Intn(8)
		for _, engine := range []Engine{LSA, CEA} {
			res, err := TopK(expand.NewMemorySource(inst.g), inst.loc, agg, k, Options{Engine: engine})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, engine, err)
			}
			checkTopKScores(t, inst, agg, k, res, engine.String())
		}
	}
}

func TestTopKNoEnhancementsSameScores(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 60; trial++ {
		inst := randomInstance(t, rng, false)
		agg := randomAggregate(rng, inst.g.D())
		k := 1 + rng.Intn(6)
		a, err := TopK(expand.NewMemorySource(inst.g), inst.loc, agg, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := TopK(expand.NewMemorySource(inst.g), inst.loc, agg, k, Options{NoEnhancements: true})
		if err != nil {
			t.Fatal(err)
		}
		sa, sb := scoresOf(a), scoresOf(b)
		if len(sa) != len(sb) {
			t.Fatalf("trial %d: lengths differ", trial)
		}
		for i := range sa {
			if math.Abs(sa[i]-sb[i]) > 1e-9 {
				t.Fatalf("trial %d: scores differ: %v vs %v", trial, sa, sb)
			}
		}
	}
}

func TestTopKLargerThanP(t *testing.T) {
	topo := gen.Path(6)
	pls := []gen.Placement{{Edge: 0, T: 0.5}, {Edge: 4, T: 0.5}}
	g, err := gen.Assemble(topo, gen.UnitCosts(topo, 2), pls, false)
	if err != nil {
		t.Fatal(err)
	}
	agg := vec.NewWeighted(0.5, 0.5)
	res, err := TopK(expand.NewMemorySource(g), graph.Location{Edge: 2, T: 0.5}, agg, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 2 {
		t.Errorf("k > |P|: got %d facilities, want 2", len(res.Facilities))
	}
}

func TestTopKInvalidArgs(t *testing.T) {
	topo := gen.Path(3)
	g, err := gen.Assemble(topo, gen.UnitCosts(topo, 2), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	src := expand.NewMemorySource(g)
	loc := graph.Location{Edge: 0, T: 0.5}
	if _, err := TopK(src, loc, vec.NewWeighted(1, 1), 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopK(src, loc, vec.NewWeighted(1), 1, Options{}); err == nil {
		t.Error("aggregate dimensionality mismatch accepted")
	}
}

func TestTopKCEAAccessBound(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(t, rng, false)
		agg := randomAggregate(rng, inst.g.D())
		mem := expand.NewMemorySource(inst.g)
		if _, err := TopK(mem, inst.loc, agg, 4, Options{Engine: CEA}); err != nil {
			t.Fatal(err)
		}
		if mem.Count.Snapshot().Adjacency > int64(inst.g.NumNodes()) {
			t.Fatalf("trial %d: CEA fetched %d adjacency records for %d nodes", trial, mem.Count.Snapshot().Adjacency, inst.g.NumNodes())
		}
	}
}

func TestTopKOnDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for trial := 0; trial < 20; trial++ {
		inst := randomInstance(t, rng, false)
		agg := randomAggregate(rng, inst.g.D())
		k := 1 + rng.Intn(5)
		net := diskNetwork(t, inst.g, 0.1)
		for _, engine := range []Engine{LSA, CEA} {
			res, err := TopK(net, inst.loc, agg, k, Options{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			checkTopKScores(t, inst, agg, k, res, "disk-"+engine.String())
		}
	}
}

func TestTopKResultsSortedByScore(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(t, rng, false)
		agg := randomAggregate(rng, inst.g.D())
		res, err := TopK(expand.NewMemorySource(inst.g), inst.loc, agg, 6, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Facilities); i++ {
			if res.Facilities[i].Score < res.Facilities[i-1].Score {
				t.Fatalf("trial %d: results not sorted by score: %v", trial, scoresOf(res))
			}
		}
	}
}

// A MaxAgg aggregate is also increasingly monotone; top-k must handle it.
func TestTopKMaxAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(t, rng, false)
		d := inst.g.D()
		coef := make([]float64, d)
		for i := range coef {
			coef[i] = 0.1 + rng.Float64()
		}
		agg := vec.NewMax(coef...)
		res, err := TopK(expand.NewMemorySource(inst.g), inst.loc, agg, 3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkTopKScores(t, inst, agg, 3, res, "maxagg")
	}
}
