package core

import (
	"math"
	"math/rand"
	"testing"

	"mcn/internal/flat"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

func TestWithinLocality(t *testing.T) {
	// A tight budget must not traverse the whole network.
	topo := gen.Grid(60, 60, 0.1, rand.New(rand.NewSource(1401)))
	costs := testnet.UnitCosts(topo, 2)
	pls := gen.UniformFacilities(topo, 2000, rand.New(rand.NewSource(1402)))
	g, err := gen.Assemble(topo, costs, pls, false)
	if err != nil {
		t.Fatal(err)
	}
	mem := testnet.NewMemorySource(g)
	res, err := Within(mem, graph.Location{Edge: 0, T: 0}, vec.Of(3, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mem.Count.Snapshot().Adjacency > int64(g.NumNodes()/10) {
		t.Errorf("range query touched %d of %d nodes; not local", mem.Count.Snapshot().Adjacency, g.NumNodes())
	}
	for _, f := range res.Facilities {
		for i, c := range f.Costs {
			if c > 3 {
				t.Fatalf("facility %d exceeds budget in dim %d: %g", f.ID, i, c)
			}
		}
	}
}

func TestWithinValidation(t *testing.T) {
	topo := testnet.Path(3)
	g, err := gen.Assemble(topo, testnet.UnitCosts(topo, 2), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	src := testnet.NewMemorySource(g)
	loc := graph.Location{Edge: 0, T: 0.5}
	if _, err := Within(src, loc, vec.Of(1), Options{}); err == nil {
		t.Error("wrong budget dimensionality accepted")
	}
	if _, err := Within(src, loc, vec.Of(1, -2), Options{}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := Within(src, loc, vec.Of(1, math.NaN()), Options{}); err == nil {
		t.Error("incomplete budget accepted")
	}
}

func TestWithinZeroBudget(t *testing.T) {
	// Budget zero admits only facilities exactly at the query location.
	topo := testnet.Path(3)
	pls := []gen.Placement{{Edge: 1, T: 0.5}, {Edge: 0, T: 0.25}}
	g, err := gen.Assemble(topo, testnet.UnitCosts(topo, 2), pls, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Within(testnet.NewMemorySource(g), graph.Location{Edge: 1, T: 0.5}, vec.Of(0, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 1 || res.Facilities[0].ID != 0 {
		t.Errorf("zero-budget range = %v, want the co-located facility only", ids(res))
	}
}

// The pruning index's worth for Within, as a deterministic counter rather
// than a throughput: on a seeded instance of the paper's default shape
// (clustered facilities, anti-correlated costs, d = 4) with budgets 1.25x the
// 6th-nearest facility's distance, attaching Bounds cuts the expanded nodes
// to at most 0.6x of the unpruned run — on both facility densities the
// index was sized on — and the counts are identical on a second run.
func TestWithinBoundsCutExpansions(t *testing.T) {
	for _, density := range []struct {
		name string
		facs int
	}{
		{"dense", 5000},
		{"sparse", 5000 / 32},
	} {
		t.Run(density.name, func(t *testing.T) {
			inst, err := gen.MakeInstance(gen.InstanceConfig{
				Nodes: 8750, Facilities: density.facs, Queries: 8, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			fs := flat.Compile(inst.Graph)
			bounds, err := fs.Index(inst.Graph, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			run := func(opt Options) (expanded, pruned int) {
				for _, q := range inst.Queries {
					probe, err := Nearest(fs, q, 0, 6, Options{})
					if err != nil {
						t.Fatal(err)
					}
					radius := 1.0
					if k := len(probe.Facilities); k > 0 {
						radius = probe.Facilities[k-1].Score * 1.25
					}
					res, err := Within(fs, q, vec.Of(radius, radius, radius, radius), opt)
					if err != nil {
						t.Fatal(err)
					}
					expanded += res.Stats.NodeExpansions
					pruned += res.Stats.PrunedNodes
				}
				return expanded, pruned
			}
			plain, plainPruned := run(Options{})
			with, withPruned := run(Options{Bounds: bounds})
			again, againPruned := run(Options{Bounds: bounds})
			t.Logf("expanded nodes over %d queries: %d without bounds, %d with (%.2fx), %d pruned",
				len(inst.Queries), plain, with, float64(with)/float64(plain), withPruned)
			if plainPruned != 0 {
				t.Errorf("unpruned run reports %d pruned nodes", plainPruned)
			}
			if with >= plain || float64(with) > 0.6*float64(plain) {
				t.Errorf("bounds cut expansions %d -> %d, want at most 0.6x", plain, with)
			}
			if again != with || againPruned != withPruned {
				t.Errorf("second run expanded %d / pruned %d, first %d / %d", again, againPruned, with, withPruned)
			}
		})
	}
}
