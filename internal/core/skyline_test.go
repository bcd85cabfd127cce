package core

import (
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

func sortedIDs(fs []Facility) []graph.FacilityID {
	ids := make([]graph.FacilityID, len(fs))
	for i, f := range fs {
		ids[i] = f.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
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

// CEA's defining property: at most one source access per adjacency record
// and per facility record per query.
func TestCEAAccessBound(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		inst := testnet.Generate(seed, testnet.ShapeOf(seed))
		mem := expand.NewMemorySource(inst.G)
		if _, err := Skyline(mem, inst.Loc, Options{Engine: CEA}); err != nil {
			t.Fatal(err)
		}
		if mem.Count.Snapshot().Adjacency > int64(inst.G.NumNodes()) {
			t.Fatalf("%v: CEA fetched %d adjacency records for %d nodes", inst, mem.Count.Snapshot().Adjacency, inst.G.NumNodes())
		}
		if mem.Count.Snapshot().Facilities > int64(inst.G.NumEdges()) {
			t.Fatalf("%v: CEA fetched %d facility records for %d edges", inst, mem.Count.Snapshot().Facilities, inst.G.NumEdges())
		}
		if mem.Count.Snapshot().EdgeInfo > 1 {
			t.Fatalf("%v: CEA resolved the query edge %d times", inst, mem.Count.Snapshot().EdgeInfo)
		}
	}
}

// LSA accesses at least as much as CEA on every instance.
func TestLSAAccessesAtLeastCEA(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		inst := testnet.Generate(seed, testnet.ShapeOf(seed))
		lsa := expand.NewMemorySource(inst.G)
		if _, err := Skyline(lsa, inst.Loc, Options{Engine: LSA}); err != nil {
			t.Fatal(err)
		}
		cea := expand.NewMemorySource(inst.G)
		if _, err := Skyline(cea, inst.Loc, Options{Engine: CEA}); err != nil {
			t.Fatal(err)
		}
		if lsa.Count.Snapshot().Total() < cea.Count.Snapshot().Total() {
			t.Fatalf("%v: LSA accesses (%d) < CEA accesses (%d)", inst, lsa.Count.Snapshot().Total(), cea.Count.Snapshot().Total())
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
	loc := graph.Location{Edge: 0, T: 0.5}
	res, err := Skyline(expand.NewMemorySource(g), loc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tracked > g.NumFacilities()/4 {
		t.Errorf("tracked %d of %d facilities; search is not local", res.Stats.Tracked, g.NumFacilities())
	}
	if got, want := sortedIDs(res.Facilities), testnet.Skyline(g, loc); !reflect.DeepEqual(got, want) {
		t.Errorf("skyline = %v, want %v", got, want)
	}
}
