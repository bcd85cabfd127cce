package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// msOracle computes, for every facility, the vector of its costIdx-distances
// from each query location.
func msOracle(g *graph.Graph, costIdx int, locs []graph.Location) []vec.Costs {
	out := make([]vec.Costs, g.NumFacilities())
	for p := range out {
		out[p] = make(vec.Costs, len(locs))
	}
	for i, loc := range locs {
		ci := testnet.FacilityCosts(g, loc, costIdx)
		for p := range ci {
			out[p][i] = ci[p]
		}
	}
	return out
}

func msSkylineOracle(g *graph.Graph, costIdx int, locs []graph.Location) []graph.FacilityID {
	vecs := msOracle(g, costIdx, locs)
	var out []graph.FacilityID
	for p := range vecs {
		if allInfVec(vecs[p]) {
			continue
		}
		dominated := false
		for q := range vecs {
			if q != p && vecs[q].Dominates(vecs[p]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, graph.FacilityID(p))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func allInfVec(c vec.Costs) bool {
	for _, v := range c {
		if !math.IsInf(v, 1) {
			return false
		}
	}
	return true
}

func msInstance(t *testing.T, rng *rand.Rand) (*graph.Graph, int, []graph.Location) {
	t.Helper()
	d := 1 + rng.Intn(3)
	topo := gen.RandomConnected(3+rng.Intn(30), rng.Intn(15), rng)
	costs := gen.AssignCosts(topo, d, gen.Distribution(rng.Intn(3)), rng)
	pls := gen.UniformFacilities(topo, 1+rng.Intn(20), rng)
	g, err := gen.Assemble(topo, costs, pls, false)
	if err != nil {
		t.Fatal(err)
	}
	nq := 2 + rng.Intn(3)
	locs := make([]graph.Location, nq)
	for i := range locs {
		locs[i] = graph.Location{Edge: graph.EdgeID(rng.Intn(g.NumEdges())), T: rng.Float64()}
	}
	return g, rng.Intn(d), locs
}

func TestMultiSourceSkylineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1200))
	for trial := 0; trial < 80; trial++ {
		g, ci, locs := msInstance(t, rng)
		for _, engine := range []Engine{LSA, CEA} {
			res, err := MultiSourceSkyline(expand.NewMemorySource(g), ci, locs, Options{Engine: engine})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want := msSkylineOracle(g, ci, locs)
			got := sortedIDs(res.Facilities)
			if len(want) == 0 {
				want = []graph.FacilityID{}
			}
			if len(got) == 0 {
				got = []graph.FacilityID{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %v: skyline %v, oracle %v", trial, engine, got, want)
			}
		}
	}
}

func TestMultiSourceTopKMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1201))
	for trial := 0; trial < 80; trial++ {
		g, ci, locs := msInstance(t, rng)
		coef := make([]float64, len(locs))
		for i := range coef {
			coef[i] = rng.Float64()
		}
		agg := vec.NewWeighted(coef...)
		k := 1 + rng.Intn(6)
		res, err := MultiSourceTopK(expand.NewMemorySource(g), ci, locs, agg, k, Options{Engine: CEA})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Oracle ranking.
		vecs := msOracle(g, ci, locs)
		var scores []float64
		for p := range vecs {
			if !allInfVec(vecs[p]) {
				scores = append(scores, agg.Score(vecs[p]))
			}
		}
		sort.Float64s(scores)
		if k > len(scores) {
			k = len(scores)
		}
		if len(res.Facilities) != k {
			t.Fatalf("trial %d: %d results, want %d", trial, len(res.Facilities), k)
		}
		for i, f := range res.Facilities {
			if math.IsInf(f.Score, 1) && math.IsInf(scores[i], 1) {
				continue
			}
			if math.Abs(f.Score-scores[i]) > 1e-9*(1+math.Abs(scores[i])) {
				t.Fatalf("trial %d: score[%d] = %g, oracle %g", trial, i, f.Score, scores[i])
			}
		}
	}
}

func TestMultiSourceMeetingPoint(t *testing.T) {
	// Three friends on a path graph; the min-sum meeting facility must be
	// the middle one.
	topo := gen.Path(7)
	pls := []gen.Placement{
		{Edge: 0, T: 0.5}, // near friend 1
		{Edge: 3, T: 0.0}, // in the middle
		{Edge: 5, T: 0.5}, // near friend 3
	}
	g, err := gen.Assemble(topo, gen.UnitCosts(topo, 1), pls, false)
	if err != nil {
		t.Fatal(err)
	}
	locs := []graph.Location{
		{Edge: 0, T: 0},
		{Edge: 3, T: 0.5},
		{Edge: 5, T: 1},
	}
	agg := vec.NewWeighted(1, 1, 1)
	res, err := MultiSourceTopK(expand.NewMemorySource(g), 0, locs, agg, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 1 || res.Facilities[0].ID != 1 {
		t.Errorf("meeting point = %v, want facility 1", res.IDs())
	}
}

func TestMultiSourceValidation(t *testing.T) {
	topo := gen.Path(3)
	g, err := gen.Assemble(topo, gen.UnitCosts(topo, 2), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	src := expand.NewMemorySource(g)
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
	rng := rand.New(rand.NewSource(1202))
	for trial := 0; trial < 30; trial++ {
		g, ci, locs := msInstance(t, rng)
		mem := expand.NewMemorySource(g)
		if _, err := MultiSourceSkyline(mem, ci, locs, Options{Engine: CEA}); err != nil {
			t.Fatal(err)
		}
		if mem.Count.Snapshot().Adjacency > int64(g.NumNodes()) {
			t.Fatalf("trial %d: CEA fetched %d adjacency records for %d nodes", trial, mem.Count.Snapshot().Adjacency, g.NumNodes())
		}
	}
}
