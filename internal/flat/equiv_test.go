package flat

import (
	"fmt"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/storage"
	"mcn/internal/vec"
)

// The equivalence suite: for seeded random graphs — directed and undirected,
// with small integer costs so exact cost ties are common — every query type
// must return byte-identical results over the flat CSR source and the paged
// disk store (LSA and CEA, directly and behind a wrapper that hides their
// declared id spaces) as over the reference MemorySource.

func sameFacilities(t *testing.T, label string, got, want []core.Facility) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d facilities, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: result %d id %d, want %d", label, i, got[i].ID, want[i].ID)
		}
		if !got[i].Costs.Equal(want[i].Costs) {
			t.Fatalf("%s: result %d (facility %d) costs %v, want %v",
				label, i, got[i].ID, got[i].Costs, want[i].Costs)
		}
		if got[i].Score != want[i].Score {
			t.Fatalf("%s: result %d (facility %d) score %g, want %g",
				label, i, got[i].ID, got[i].Score, want[i].Score)
		}
	}
}

// variant is one (source, engine) combination under test.
type variant struct {
	name   string
	src    expand.Source
	engine core.Engine
}

// sixMethods hides everything but the six expand.Source methods of what it
// wraps — Sized, ZeroCopy, EdgeCoster — the way a caller's own wrapper does
// (the benchmark's tracing shim is one). Queries over it run on state that
// grows on demand and, under CEA, behind the record memo.
type sixMethods struct{ expand.Source }

func TestFlatEquivalence(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("directed=%v/seed=%d", directed, seed)
			t.Run(name, func(t *testing.T) {
				inst, err := gen.MakeInstance(gen.InstanceConfig{
					Nodes:        250,
					Facilities:   50,
					Clusters:     3,
					D:            3,
					Queries:      4,
					Directed:     directed,
					Seed:         seed,
					IntegerCosts: 3, // [1,3] integer costs: exact ties everywhere
				})
				if err != nil {
					t.Fatal(err)
				}
				g := inst.Graph
				mem := expand.NewMemorySource(g)
				fs := Compile(g)
				dev, err := storage.BuildMem(g)
				if err != nil {
					t.Fatal(err)
				}
				disk, err := storage.Open(dev, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				variants := []variant{
					{"mem/CEA", mem, core.CEA},
					{"flat/LSA", fs, core.LSA},
					{"flat/CEA", fs, core.CEA},
					{"wrapped flat/LSA", sixMethods{fs}, core.LSA},
					{"wrapped flat/CEA", sixMethods{fs}, core.CEA},
					{"disk/CEA", disk, core.CEA},
					{"wrapped disk/LSA", sixMethods{disk}, core.LSA},
					{"wrapped disk/CEA", sixMethods{disk}, core.CEA},
				}
				agg := vec.NewWeighted(1, 0.5, 0.25)
				others := []graph.Location{inst.Queries[0], inst.Queries[len(inst.Queries)-1]}

				for qi, loc := range inst.Queries {
					// Budget for Within: wide enough to catch a handful of
					// facilities, derived from the reference source only.
					budget := make(vec.Costs, g.D())
					probe, err := core.Nearest(mem, loc, 0, 8, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					radius := 1.0
					if n := len(probe.Facilities); n > 0 {
						radius = probe.Facilities[n-1].Score * 1.5
					}
					for i := range budget {
						budget[i] = radius
					}

					type query struct {
						name string
						run  func(expand.Source, core.Options) (*core.Result, error)
					}
					queries := []query{
						{"skyline", func(s expand.Source, o core.Options) (*core.Result, error) {
							return core.Skyline(s, loc, o)
						}},
						{"topk", func(s expand.Source, o core.Options) (*core.Result, error) {
							return core.TopK(s, loc, agg, 4, o)
						}},
						{"nearest", func(s expand.Source, o core.Options) (*core.Result, error) {
							return core.Nearest(s, loc, qi%g.D(), 6, o)
						}},
						{"within", func(s expand.Source, o core.Options) (*core.Result, error) {
							return core.Within(s, loc, budget, o)
						}},
						{"multisource skyline", func(s expand.Source, o core.Options) (*core.Result, error) {
							return core.MultiSourceSkyline(s, qi%g.D(), append(others, loc), o)
						}},
						{"multisource topk", func(s expand.Source, o core.Options) (*core.Result, error) {
							return core.MultiSourceTopK(s, qi%g.D(), append(others, loc), agg, 4, o)
						}},
					}
					for _, q := range queries {
						want, err := q.run(mem, core.Options{Engine: core.LSA})
						if err != nil {
							t.Fatalf("q%d %s baseline: %v", qi, q.name, err)
						}
						for _, v := range variants {
							label := fmt.Sprintf("q%d %s %s", qi, q.name, v.name)
							got, err := q.run(v.src, core.Options{Engine: v.engine})
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							sameFacilities(t, label, got.Facilities, want.Facilities)
							if got.Stats.Pops != want.Stats.Pops {
								t.Errorf("%s: %d pops, want %d", label, got.Stats.Pops, want.Stats.Pops)
							}
							if got.Stats.NodeExpansions != want.Stats.NodeExpansions {
								t.Errorf("%s: %d node expansions, want %d",
									label, got.Stats.NodeExpansions, want.Stats.NodeExpansions)
							}
						}
					}
				}
			})
		}
	}
}

// TestFlatEquivalenceTieEdges drives the tie semantics directly: facilities
// at identical positions on the same edge and parallel equal-cost paths.
func TestFlatEquivalenceTieEdges(t *testing.T) {
	for _, directed := range []bool{false, true} {
		b := graph.NewBuilder(2, directed)
		n := make([]graph.NodeID, 6)
		for i := range n {
			n[i] = b.AddNode(float64(i), 0)
		}
		// Diamond with equal-cost parallel paths plus a tail.
		e01 := b.AddEdge(n[0], n[1], vec.Of(1, 2))
		b.AddEdge(n[0], n[2], vec.Of(1, 2))
		b.AddEdge(n[1], n[3], vec.Of(1, 1))
		b.AddEdge(n[2], n[3], vec.Of(1, 1))
		e34 := b.AddEdge(n[3], n[4], vec.Of(2, 1))
		e45 := b.AddEdge(n[4], n[5], vec.Of(1, 1))
		// Ties: two facilities at the same fraction of the same edge, one at
		// each end, equal-cost facilities on distinct edges.
		b.AddFacility(e01, 0.5)
		b.AddFacility(e01, 0.5)
		b.AddFacility(e34, 0)
		b.AddFacility(e34, 1)
		b.AddFacility(e45, 0.25)
		g := b.MustBuild()

		mem := expand.NewMemorySource(g)
		fs := Compile(g)
		loc := graph.Location{Edge: e01, T: 0.25}
		agg := vec.NewWeighted(1, 1)

		for _, engine := range []core.Engine{core.LSA, core.CEA} {
			wantSky, err := core.Skyline(mem, loc, core.Options{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			gotSky, err := core.Skyline(fs, loc, core.Options{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			sameFacilities(t, fmt.Sprintf("tie skyline directed=%v %v", directed, engine),
				gotSky.Facilities, wantSky.Facilities)

			wantTop, err := core.TopK(mem, loc, agg, 3, core.Options{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			gotTop, err := core.TopK(fs, loc, agg, 3, core.Options{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			sameFacilities(t, fmt.Sprintf("tie topk directed=%v %v", directed, engine),
				gotTop.Facilities, wantTop.Facilities)
		}
	}
}
