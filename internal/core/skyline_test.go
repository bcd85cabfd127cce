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

// instance is one randomly generated test network with a query location.
type instance struct {
	g   *graph.Graph
	loc graph.Location
}

func randomInstance(t *testing.T, rng *rand.Rand, ties bool) instance {
	t.Helper()
	d := 2 + rng.Intn(3)
	n := 2 + rng.Intn(50)
	directed := rng.Intn(4) == 0
	topo := gen.RandomConnected(n, rng.Intn(2*n), rng)
	var costs []vec.Costs
	if ties {
		costs = gen.RandomIntegerCosts(topo, d, 3, rng)
	} else {
		costs = gen.AssignCosts(topo, d, gen.Distribution(rng.Intn(3)), rng)
	}
	nf := 1 + rng.Intn(30)
	var pls []gen.Placement
	if ties {
		// Restrict facility positions to a small grid of fractions so that
		// exact cost ties (including exact duplicates) actually occur.
		for i := 0; i < nf; i++ {
			pls = append(pls, gen.Placement{
				Edge: uint32(rng.Intn(topo.NumEdges())),
				T:    float64(rng.Intn(3)) / 2,
			})
		}
	} else {
		pls = gen.UniformFacilities(topo, nf, rng)
	}
	g, err := gen.Assemble(topo, costs, pls, directed)
	if err != nil {
		t.Fatal(err)
	}
	var loc graph.Location
	if ties {
		loc = graph.Location{Edge: graph.EdgeID(rng.Intn(g.NumEdges())), T: float64(rng.Intn(3)) / 2}
	} else {
		loc = graph.Location{Edge: graph.EdgeID(rng.Intn(g.NumEdges())), T: rng.Float64()}
	}
	return instance{g: g, loc: loc}
}

func sortedIDs(fs []Facility) []graph.FacilityID {
	ids := make([]graph.FacilityID, len(fs))
	for i, f := range fs {
		ids[i] = f.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// checkSkylineExact requires the result to equal the oracle skyline exactly
// (valid for tie-free instances).
func checkSkylineExact(t *testing.T, inst instance, res *Result, label string) {
	t.Helper()
	want := testnet.Skyline(inst.g, inst.loc)
	got := sortedIDs(res.Facilities)
	if len(want) == 0 {
		want = []graph.FacilityID{}
	}
	if len(got) == 0 {
		got = []graph.FacilityID{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: skyline = %v, want %v", label, got, want)
	}
}

// checkSkylineTieEquivalent verifies the tie-robust guarantee: every
// reported facility is in the exact skyline, and every exact-skyline
// facility is either reported or has a cost vector exactly equal to a
// reported one.
func checkSkylineTieEquivalent(t *testing.T, inst instance, res *Result, label string) {
	t.Helper()
	exact := testnet.Skyline(inst.g, inst.loc)
	inExact := make(map[graph.FacilityID]bool, len(exact))
	for _, id := range exact {
		inExact[id] = true
	}
	oracleCosts := testnet.AllCosts(inst.g, inst.loc)
	reportedVecs := make([]vec.Costs, 0, len(res.Facilities))
	for _, f := range res.Facilities {
		if !inExact[f.ID] {
			t.Fatalf("%s: reported facility %d (%v) is not in the exact skyline", label, f.ID, oracleCosts[f.ID])
		}
		reportedVecs = append(reportedVecs, oracleCosts[f.ID])
	}
	for _, id := range exact {
		found := false
		for _, f := range res.Facilities {
			if f.ID == id {
				found = true
				break
			}
		}
		if found {
			continue
		}
		tied := false
		for _, v := range reportedVecs {
			if v.Equal(oracleCosts[id]) {
				tied = true
				break
			}
		}
		if !tied {
			t.Fatalf("%s: exact-skyline facility %d (%v) neither reported nor tied with a reported vector; reported %v",
				label, id, oracleCosts[id], sortedIDs(res.Facilities))
		}
	}
}

// checkReportedCosts verifies each reported known cost against the oracle.
func checkReportedCosts(t *testing.T, inst instance, res *Result, label string) {
	t.Helper()
	oracle := testnet.AllCosts(inst.g, inst.loc)
	for _, f := range res.Facilities {
		for i, c := range f.Costs {
			if vec.IsUnknown(c) {
				continue
			}
			want := oracle[f.ID][i]
			if math.Abs(c-want) > 1e-9*(1+math.Abs(want)) && !(math.IsInf(c, 1) && math.IsInf(want, 1)) {
				t.Fatalf("%s: facility %d cost %d = %g, oracle %g", label, f.ID, i, c, want)
			}
		}
	}
}

func TestSkylineFixedExample(t *testing.T) {
	// Figure 1-style network: two facilities, one faster and one cheaper;
	// both must be in the skyline.
	b := graph.NewBuilder(2, false)
	q0 := b.AddNode(0, 0)
	n1 := b.AddNode(1, 0)
	n2 := b.AddNode(0, 1)
	e1 := b.AddEdge(q0, n1, vec.Of(10, 1)) // fast but tolled
	e2 := b.AddEdge(q0, n2, vec.Of(20, 0)) // slow but free
	b.AddEdge(n1, n2, vec.Of(5, 5))
	p1 := b.AddFacility(e2, 1.0)
	p2 := b.AddFacility(e1, 1.0)
	g := b.MustBuild()
	loc, err := graph.LocationAtNode(g, q0)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{LSA, CEA} {
		res, err := Skyline(expand.NewMemorySource(g), loc, Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		got := sortedIDs(res.Facilities)
		want := []graph.FacilityID{p1, p2}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: skyline = %v, want %v", engine, got, want)
		}
	}
}

func TestSkylineMatchesOracleContinuous(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 150; trial++ {
		inst := randomInstance(t, rng, false)
		for _, engine := range []Engine{LSA, CEA} {
			res, err := Skyline(expand.NewMemorySource(inst.g), inst.loc, Options{Engine: engine})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, engine, err)
			}
			checkSkylineExact(t, inst, res, engine.String())
			checkReportedCosts(t, inst, res, engine.String())
		}
	}
}

func TestSkylineTieRobust(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 200; trial++ {
		inst := randomInstance(t, rng, true)
		for _, engine := range []Engine{LSA, CEA} {
			res, err := Skyline(expand.NewMemorySource(inst.g), inst.loc, Options{Engine: engine})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, engine, err)
			}
			checkSkylineTieEquivalent(t, inst, res, engine.String())
		}
	}
}

func TestSkylineNoEnhancementsSameAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 80; trial++ {
		inst := randomInstance(t, rng, trial%2 == 0)
		base, err := Skyline(expand.NewMemorySource(inst.g), inst.loc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Skyline(expand.NewMemorySource(inst.g), inst.loc, Options{NoEnhancements: true})
		if err != nil {
			t.Fatal(err)
		}
		a, b := sortedIDs(base.Facilities), sortedIDs(plain.Facilities)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: enhancements changed the answer: %v vs %v", trial, a, b)
		}
	}
}

// CEA must produce the same skyline in the same emission order as LSA
// (the paper: identical NN order, candidate set and reporting order).
func TestCEASameOrderAsLSA(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 100; trial++ {
		inst := randomInstance(t, rng, trial%3 == 0)
		var lsaOrder, ceaOrder []graph.FacilityID
		_, err := Skyline(expand.NewMemorySource(inst.g), inst.loc, Options{
			Engine:   LSA,
			OnResult: func(f Facility) { lsaOrder = append(lsaOrder, f.ID) },
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Skyline(expand.NewMemorySource(inst.g), inst.loc, Options{
			Engine:   CEA,
			OnResult: func(f Facility) { ceaOrder = append(ceaOrder, f.ID) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lsaOrder, ceaOrder) {
			t.Fatalf("trial %d: emission order differs: LSA %v, CEA %v", trial, lsaOrder, ceaOrder)
		}
	}
}

// CEA's defining property: at most one source access per adjacency record
// and per facility record per query.
func TestCEAAccessBound(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 60; trial++ {
		inst := randomInstance(t, rng, false)
		mem := expand.NewMemorySource(inst.g)
		if _, err := Skyline(mem, inst.loc, Options{Engine: CEA}); err != nil {
			t.Fatal(err)
		}
		if mem.Count.Snapshot().Adjacency > int64(inst.g.NumNodes()) {
			t.Fatalf("trial %d: CEA fetched %d adjacency records for %d nodes", trial, mem.Count.Snapshot().Adjacency, inst.g.NumNodes())
		}
		if mem.Count.Snapshot().Facilities > int64(inst.g.NumEdges()) {
			t.Fatalf("trial %d: CEA fetched %d facility records for %d edges", trial, mem.Count.Snapshot().Facilities, inst.g.NumEdges())
		}
		if mem.Count.Snapshot().EdgeInfo > 1 {
			t.Fatalf("trial %d: CEA resolved the query edge %d times", trial, mem.Count.Snapshot().EdgeInfo)
		}
	}
}

// LSA accesses at least as much as CEA on every instance.
func TestLSAAccessesAtLeastCEA(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(t, rng, false)
		lsa := expand.NewMemorySource(inst.g)
		if _, err := Skyline(lsa, inst.loc, Options{Engine: LSA}); err != nil {
			t.Fatal(err)
		}
		cea := expand.NewMemorySource(inst.g)
		if _, err := Skyline(cea, inst.loc, Options{Engine: CEA}); err != nil {
			t.Fatal(err)
		}
		if lsa.Count.Snapshot().Total() < cea.Count.Snapshot().Total() {
			t.Fatalf("trial %d: LSA accesses (%d) < CEA accesses (%d)", trial, lsa.Count.Snapshot().Total(), cea.Count.Snapshot().Total())
		}
	}
}

// Progressiveness: OnResult must deliver exactly the final facilities, in
// emission order, and every emitted facility must already be undominated.
func TestSkylineProgressive(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for trial := 0; trial < 60; trial++ {
		inst := randomInstance(t, rng, false)
		var emitted []graph.FacilityID
		res, err := Skyline(expand.NewMemorySource(inst.g), inst.loc, Options{
			OnResult: func(f Facility) { emitted = append(emitted, f.ID) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(emitted) != len(res.Facilities) {
			t.Fatalf("trial %d: %d callbacks for %d results", trial, len(emitted), len(res.Facilities))
		}
		for i, f := range res.Facilities {
			if emitted[i] != f.ID {
				t.Fatalf("trial %d: emission order %v != result order %v", trial, emitted, res.IDs())
			}
		}
	}
}

func TestSkylineOnDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 25; trial++ {
		inst := randomInstance(t, rng, false)
		net := diskNetwork(t, inst.g, 0.1)
		for _, engine := range []Engine{LSA, CEA} {
			res, err := Skyline(net, inst.loc, Options{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			checkSkylineExact(t, inst, res, "disk-"+engine.String())
		}
	}
}

func TestSkylineNoFacilities(t *testing.T) {
	topo := gen.Path(5)
	g, err := gen.Assemble(topo, gen.UnitCosts(topo, 2), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{LSA, CEA} {
		res, err := Skyline(expand.NewMemorySource(g), graph.Location{Edge: 0, T: 0.5}, Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Facilities) != 0 {
			t.Errorf("%v: skyline of empty facility set = %v", engine, res.IDs())
		}
	}
}

func TestSkylineSingleFacility(t *testing.T) {
	topo := gen.Path(5)
	pls := []gen.Placement{{Edge: 3, T: 0.5}}
	g, err := gen.Assemble(topo, gen.UnitCosts(topo, 3), pls, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Skyline(expand.NewMemorySource(g), graph.Location{Edge: 0, T: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 1 || res.Facilities[0].ID != 0 {
		t.Errorf("skyline = %v, want [0]", res.IDs())
	}
}

// Disconnected component: facilities unreachable under every cost type must
// not be reported; partially unreachable ones participate.
func TestSkylineDisconnected(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddNodes(4)
	e0 := b.AddEdge(0, 1, vec.Of(1, 1))
	e1 := b.AddEdge(2, 3, vec.Of(1, 1)) // separate island
	fNear := b.AddFacility(e0, 0.75)
	b.AddFacility(e1, 0.5) // unreachable
	g := b.MustBuild()
	res, err := Skyline(expand.NewMemorySource(g), graph.Location{Edge: e0, T: 0.25}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 1 || res.Facilities[0].ID != fNear {
		t.Errorf("skyline = %v, want [%d]", res.IDs(), fNear)
	}
}

// The dominance region argument: with clustered duplicates near the query,
// the tracked set must stay far below |P|. This guards against regressions
// that silently degrade LSA to the naive baseline.
func TestSkylineLocality(t *testing.T) {
	topo := gen.Grid(40, 40, 0.1, rand.New(rand.NewSource(108)))
	costs := gen.AssignCosts(topo, 2, gen.Correlated, rand.New(rand.NewSource(109)))
	pls := gen.UniformFacilities(topo, 2000, rand.New(rand.NewSource(110)))
	g, err := gen.Assemble(topo, costs, pls, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Skyline(expand.NewMemorySource(g), graph.Location{Edge: 0, T: 0.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tracked > g.NumFacilities()/4 {
		t.Errorf("tracked %d of %d facilities; search is not local", res.Stats.Tracked, g.NumFacilities())
	}
	checkSkylineExact(t, instance{g: g, loc: graph.Location{Edge: 0, T: 0.5}}, res, "locality")
}
