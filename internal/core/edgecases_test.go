package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// Zero-cost edges create equal-key heap entries between nodes and
// facilities; the expansion's node-before-facility ordering and the skyline
// pending machinery must keep results exact.
func TestSkylineZeroCostEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1000))
	for trial := 0; trial < 100; trial++ {
		d := 2 + rng.Intn(2)
		n := 2 + rng.Intn(15)
		topo := gen.RandomConnected(n, rng.Intn(n), rng)
		costs := make([]vec.Costs, topo.NumEdges())
		for e := range costs {
			c := make(vec.Costs, d)
			for j := range c {
				c[j] = float64(rng.Intn(3)) // 0, 1 or 2 — plenty of zeros
			}
			costs[e] = c
		}
		nf := 1 + rng.Intn(10)
		pls := make([]gen.Placement, nf)
		for i := range pls {
			pls[i] = gen.Placement{Edge: uint32(rng.Intn(topo.NumEdges())), T: float64(rng.Intn(2))}
		}
		g, err := gen.Assemble(topo, costs, pls, false)
		if err != nil {
			t.Fatal(err)
		}
		inst := instance{g: g, loc: graph.Location{Edge: graph.EdgeID(rng.Intn(g.NumEdges())), T: 0.5}}
		for _, engine := range []Engine{LSA, CEA} {
			res, err := Skyline(expand.NewMemorySource(g), inst.loc, Options{Engine: engine})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			checkSkylineTieEquivalent(t, inst, res, engine.String())
		}
	}
}

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
// the library's distinct-value guarantee the skyline reports at least one of
// them (an unseen exact duplicate of the first pinned facility may be
// omitted — see DESIGN.md §5), and never anything dominated.
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
	inst := instance{g: g, loc: loc}
	checkSkylineTieEquivalent(t, inst, res, "parallel-edges")
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

// High dimensionality (d=8, beyond the paper's 2–5) must still be exact.
func TestSkylineHighDimensional(t *testing.T) {
	rng := rand.New(rand.NewSource(1001))
	for trial := 0; trial < 10; trial++ {
		const d = 8
		topo := gen.RandomConnected(15+rng.Intn(10), 10, rng)
		costs := gen.AssignCosts(topo, d, gen.AntiCorrelated, rng)
		pls := gen.UniformFacilities(topo, 12, rng)
		g, err := gen.Assemble(topo, costs, pls, false)
		if err != nil {
			t.Fatal(err)
		}
		inst := instance{g: g, loc: graph.Location{Edge: 0, T: 0.5}}
		res, err := Skyline(expand.NewMemorySource(g), inst.loc, Options{Engine: CEA})
		if err != nil {
			t.Fatal(err)
		}
		checkSkylineExact(t, inst, res, "d=8")
	}
}

// Boundary facility positions T=0 and T=1 coincide with nodes.
func TestFacilitiesAtNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1002))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(10)
		topo := gen.RandomConnected(n, rng.Intn(6), rng)
		costs := gen.AssignCosts(topo, 2, gen.Independent, rng)
		var pls []gen.Placement
		for i := 0; i < 1+rng.Intn(6); i++ {
			pls = append(pls, gen.Placement{Edge: uint32(rng.Intn(topo.NumEdges())), T: float64(rng.Intn(2))})
		}
		g, err := gen.Assemble(topo, costs, pls, false)
		if err != nil {
			t.Fatal(err)
		}
		inst := instance{g: g, loc: graph.Location{Edge: 0, T: 1}}
		res, err := Skyline(expand.NewMemorySource(g), inst.loc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkSkylineTieEquivalent(t, inst, res, "node-facilities")
	}
}

// quick.Check: for arbitrary small networks, the skyline never contains a
// dominated facility and never misses an undominated cost vector.
func TestSkylineQuickProperty(t *testing.T) {
	type seedInput struct {
		Seed int64
	}
	f := func(in seedInput) bool {
		rng := rand.New(rand.NewSource(in.Seed))
		n := 2 + rng.Intn(20)
		topo := gen.RandomConnected(n, rng.Intn(10), rng)
		costs := gen.RandomIntegerCosts(topo, 2, 4, rng)
		pls := gen.UniformFacilities(topo, 1+rng.Intn(12), rng)
		g, err := gen.Assemble(topo, costs, pls, false)
		if err != nil {
			return false
		}
		loc := graph.Location{Edge: graph.EdgeID(rng.Intn(g.NumEdges())), T: rng.Float64()}
		res, err := Skyline(expand.NewMemorySource(g), loc, Options{Engine: CEA})
		if err != nil {
			return false
		}
		oracle := testnet.AllCosts(g, loc)
		for _, fac := range res.Facilities {
			for q := range oracle {
				if graph.FacilityID(q) != fac.ID && oracle[q].Dominates(oracle[fac.ID]) {
					return false // reported a dominated facility
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// quick.Check: top-1 score always equals the minimum oracle score.
func TestTopOneQuickProperty(t *testing.T) {
	type seedInput struct {
		Seed int64
	}
	f := func(in seedInput) bool {
		rng := rand.New(rand.NewSource(in.Seed))
		n := 2 + rng.Intn(20)
		topo := gen.RandomConnected(n, rng.Intn(8), rng)
		costs := gen.AssignCosts(topo, 3, gen.Distribution(rng.Intn(3)), rng)
		pls := gen.UniformFacilities(topo, 1+rng.Intn(10), rng)
		g, err := gen.Assemble(topo, costs, pls, false)
		if err != nil {
			return false
		}
		loc := graph.Location{Edge: graph.EdgeID(rng.Intn(g.NumEdges())), T: rng.Float64()}
		agg := vec.NewWeighted(rng.Float64(), rng.Float64(), rng.Float64())
		res, err := TopK(expand.NewMemorySource(g), loc, agg, 1, Options{})
		if err != nil || len(res.Facilities) != 1 {
			return false
		}
		want := testnet.TopKScores(g, loc, agg, 1)
		return len(want) == 1 && math.Abs(res.Facilities[0].Score-want[0]) < 1e-9*(1+want[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The skyline is invariant under the query engine, enhancement flags, and
// the storage backend, all at once.
func TestSkylineInvariantAcrossConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(1003))
	for trial := 0; trial < 25; trial++ {
		inst := randomInstance(t, rng, trial%2 == 0)
		net := diskNetwork(t, inst.g, 0.05)
		var results [][]graph.FacilityID
		for _, opts := range []Options{
			{Engine: LSA},
			{Engine: CEA},
			{Engine: LSA, NoEnhancements: true},
			{Engine: CEA, NoEnhancements: true},
		} {
			memRes, err := Skyline(expand.NewMemorySource(inst.g), inst.loc, opts)
			if err != nil {
				t.Fatal(err)
			}
			diskRes, err := Skyline(net, inst.loc, opts)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, sortedIDs(memRes.Facilities), sortedIDs(diskRes.Facilities))
		}
		for i := 1; i < len(results); i++ {
			if !reflect.DeepEqual(results[0], results[i]) {
				t.Fatalf("trial %d: configuration %d differs: %v vs %v", trial, i, results[0], results[i])
			}
		}
	}
}
