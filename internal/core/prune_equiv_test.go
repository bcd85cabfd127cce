package core

import (
	"fmt"
	"testing"

	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/vec"
)

// The pruned-vs-unpruned equivalence suite: for seeded random networks with
// small integer costs (exact ties everywhere), every query kind must return
// byte-identical results with the lower-bound pruning index attached as
// without it — facilities, cost vectors and scores, under both engines. Only
// Within consults the index, so only its work statistics may change, and
// only downward; top-k, skyline and nearest must report identical Stats.

// samePrunedFacilities asserts byte-identical result sets (ids, costs,
// scores, order).
func samePrunedFacilities(t *testing.T, label string, got, want []Facility) {
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

func TestPrunedEquivalenceRandomized(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("directed=%v/seed=%d", directed, seed), func(t *testing.T) {
				inst, err := gen.MakeInstance(gen.InstanceConfig{
					Nodes:        250,
					Facilities:   50,
					Clusters:     3,
					D:            3,
					Queries:      3,
					Directed:     directed,
					Seed:         seed,
					IntegerCosts: 3, // [1,3] integer costs: exact ties everywhere
				})
				if err != nil {
					t.Fatal(err)
				}
				g := inst.Graph
				src := expand.NewMemorySource(g)
				bounds := index.FromGraph(g)
				aggs := map[string]vec.Aggregate{
					"weighted": vec.NewWeighted(1, 0.5, 0.25),
					"max":      vec.NewMax(1, 1, 2),
				}
				prunedNodes := 0

				for qi, loc := range inst.Queries {
					// Budget wide enough to catch a handful of facilities,
					// derived from the unpruned path only.
					probe, err := Nearest(src, loc, 0, 6, Options{})
					if err != nil {
						t.Fatal(err)
					}
					radius := 1.0
					if k := len(probe.Facilities); k > 0 {
						radius = probe.Facilities[k-1].Score * 1.5
					}
					budget := vec.Of(radius, radius, radius)

					for _, eng := range []Engine{LSA, CEA} {
						base := Options{Engine: eng}
						pruned := Options{Engine: eng, Bounds: bounds}
						tag := func(kind string) string {
							return fmt.Sprintf("q%d %s/%v", qi, kind, eng)
						}

						for name, agg := range aggs {
							for _, k := range []int{1, 4, 10} {
								want, err := TopK(src, loc, agg, k, base)
								if err != nil {
									t.Fatal(err)
								}
								got, err := TopK(src, loc, agg, k, pruned)
								if err != nil {
									t.Fatal(err)
								}
								label := tag(fmt.Sprintf("topk/%s/k=%d", name, k))
								samePrunedFacilities(t, label, got.Facilities, want.Facilities)
								// Top-k has no prune hook: a Stats difference
								// means one crept back in.
								if got.Stats != want.Stats {
									t.Errorf("%s: stats %+v, want %+v (top-k must ignore bounds)",
										label, got.Stats, want.Stats)
								}
							}
						}

						want, err := Within(src, loc, budget, base)
						if err != nil {
							t.Fatal(err)
						}
						got, err := Within(src, loc, budget, pruned)
						if err != nil {
							t.Fatal(err)
						}
						samePrunedFacilities(t, tag("within"), got.Facilities, want.Facilities)
						if got.Stats.NodeExpansions > want.Stats.NodeExpansions {
							t.Errorf("%s: pruned run expanded %d nodes > unpruned %d",
								tag("within"), got.Stats.NodeExpansions, want.Stats.NodeExpansions)
						}
						prunedNodes += got.Stats.PrunedNodes

						// Bounds + NoPrune must be indistinguishable from no
						// bounds at all, stats included.
						off, err := Within(src, loc, budget, Options{Engine: eng, Bounds: bounds, NoPrune: true})
						if err != nil {
							t.Fatal(err)
						}
						samePrunedFacilities(t, tag("within/noprune"), off.Facilities, want.Facilities)
						if off.Stats != want.Stats {
							t.Errorf("%s: NoPrune stats %+v, want %+v", tag("within"), off.Stats, want.Stats)
						}

						// Skyline deliberately ignores the index: results AND
						// work statistics must match an unpruned run exactly.
						wantSky, err := Skyline(src, loc, base)
						if err != nil {
							t.Fatal(err)
						}
						gotSky, err := Skyline(src, loc, pruned)
						if err != nil {
							t.Fatal(err)
						}
						samePrunedFacilities(t, tag("skyline"), gotSky.Facilities, wantSky.Facilities)
						if gotSky.Stats != wantSky.Stats {
							t.Errorf("%s: stats %+v, want %+v (skyline must ignore bounds)",
								tag("skyline"), gotSky.Stats, wantSky.Stats)
						}

						// Nearest has no admissible horizon and runs unpruned.
						wantNear, err := Nearest(src, loc, qi%g.D(), 5, base)
						if err != nil {
							t.Fatal(err)
						}
						gotNear, err := Nearest(src, loc, qi%g.D(), 5, pruned)
						if err != nil {
							t.Fatal(err)
						}
						samePrunedFacilities(t, tag("nearest"), gotNear.Facilities, wantNear.Facilities)
						if gotNear.Stats != wantNear.Stats {
							t.Errorf("%s: stats %+v, want %+v (nearest must ignore bounds)",
								tag("nearest"), gotNear.Stats, wantNear.Stats)
						}
					}
				}
				if prunedNodes == 0 {
					t.Error("pruning never fired across any query; the hook is not wired")
				}
			})
		}
	}
}

// Top-k with the index attached must also agree exactly with the naive
// baseline — the total-order (score, id) maintenance makes the fixed-k
// driver's tie choice deterministic, so the paths coincide byte for byte.
func TestPrunedTopKMatchesNaive(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 200, Facilities: 40, Clusters: 3, D: 3, Queries: 3,
		Seed: 9, IntegerCosts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := expand.NewMemorySource(inst.Graph)
	bounds := index.FromGraph(inst.Graph)
	agg := vec.NewWeighted(1, 1, 1)
	for qi, loc := range inst.Queries {
		for _, k := range []int{1, 3, 8} {
			naive, err := NaiveTopK(src, loc, agg, k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := TopK(src, loc, agg, k, Options{Bounds: bounds})
			if err != nil {
				t.Fatal(err)
			}
			samePrunedFacilities(t, fmt.Sprintf("q%d k=%d", qi, k), got.Facilities, naive.Facilities)
		}
	}
}

// A pruned query on a graph whose facilities were all placed on one far edge
// exercises the +Inf bound components (unreachable under some cost type must
// not panic or mis-prune).
func TestPrunedDisconnectedComponents(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddNodes(6)
	// Two components: 0-1-2 (facility on 1-2) and 3-4-5 (no facilities).
	e01 := b.AddEdge(0, 1, vec.Of(1, 2))
	e12 := b.AddEdge(1, 2, vec.Of(2, 1))
	b.AddEdge(3, 4, vec.Of(1, 1))
	b.AddEdge(4, 5, vec.Of(1, 1))
	b.AddFacility(e12, 0.5)
	g := b.MustBuild()
	src := expand.NewMemorySource(g)
	bounds := index.FromGraph(g)

	// From the facility's component: the index changes nothing.
	loc, err := graph.LocationAt(g, e01, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TopK(src, loc, vec.NewWeighted(1, 1), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := TopK(src, loc, vec.NewWeighted(1, 1), 1, Options{Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	samePrunedFacilities(t, "reachable", got.Facilities, want.Facilities)

	// From the facility-free component every bound is +Inf; queries must
	// come back empty without tripping over Inf arithmetic.
	farLoc, err := graph.LocationAtNode(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TopK(src, farLoc, vec.NewWeighted(1, 1), 1, Options{Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 0 {
		t.Errorf("facility-free component returned %d facilities", len(res.Facilities))
	}
	resW, err := Within(src, farLoc, vec.Of(100, 100), Options{Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if len(resW.Facilities) != 0 {
		t.Errorf("facility-free component Within returned %d facilities", len(resW.Facilities))
	}
}
