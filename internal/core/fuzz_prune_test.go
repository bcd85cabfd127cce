package core

import (
	"math/rand"
	"testing"

	"mcn/internal/expand"
	"mcn/internal/flat"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/vec"
)

// fuzzInstance decodes the shared fuzz-input encoding — the one
// FuzzSkylineInvariants established — into a small random network and query
// location: the fuzzer owns topology size, cost granularity, facility count,
// dimensionality, query position and directedness, with small integer costs
// so exact ties (the hard case) are common.
func fuzzInstance(t *testing.T, seed int64, nodes, extra, facs, d, locBits uint8, directed bool) (*graph.Graph, graph.Location) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nn := 2 + int(nodes)%24
	topo := gen.RandomConnected(nn, int(extra)%12, rng)
	costs := gen.RandomIntegerCosts(topo, 1+int(d)%4, 3, rng)
	pls := gen.UniformFacilities(topo, 1+int(facs)%12, rng)
	g, err := gen.Assemble(topo, costs, pls, directed)
	if err != nil {
		t.Fatal(err)
	}
	return g, graph.Location{
		Edge: graph.EdgeID(int(locBits) % g.NumEdges()),
		T:    float64(int(locBits)%8) / 8,
	}
}

// FuzzTopKInvariants drives the fixed-k top-k driver over small random
// networks and checks, for fuzzer-chosen integer aggregate weights and k:
//
//  1. score monotonicity: results arrive in ascending (score, id) order;
//  2. exact agreement with NaiveTopK (materialise everything, score, sort)
//     — ids, cost vectors and scores, byte for byte;
//  3. bounds are ignored: attaching the lower-bound pruning index changes
//     neither the result nor the work statistics (top-k has no prune hook);
//
// across the MemorySource reference and the flat CSR path. Run `make fuzz` for a
// fuzzing session; CI runs a short smoke.
func FuzzTopKInvariants(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(4), uint8(4), uint8(2), uint8(0), true, uint8(3), uint8(9))
	f.Add(int64(7), uint8(20), uint8(0), uint8(8), uint8(3), uint8(2), false, uint8(1), uint8(27))
	f.Add(int64(42), uint8(3), uint8(9), uint8(1), uint8(4), uint8(5), true, uint8(6), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nodes, extra, facs, d, locBits uint8, directed bool, kBits, aggBits uint8) {
		g, loc := fuzzInstance(t, seed, nodes, extra, facs, d, locBits, directed)
		k := 1 + int(kBits)%6
		// Small integer coefficients keep aggregate scores exactly
		// representable, so score ties survive into the comparison.
		coef := make([]float64, g.D())
		for i := range coef {
			coef[i] = float64(1 + (int(aggBits)>>i)%3)
		}
		agg := vec.NewWeighted(coef...)

		mem := expand.NewMemorySource(g)
		naive, err := NaiveTopK(mem, loc, agg, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bounds := index.FromGraph(g)

		fs := flat.Compile(g)
		for _, run := range []struct {
			name string
			opt  Options
			src  expand.Source
		}{
			{"mem/LSA", Options{}, mem},
			{"flat/CEA", Options{Engine: CEA}, fs},
		} {
			res, err := TopK(run.src, loc, agg, k, run.opt)
			if err != nil {
				t.Fatalf("%s: %v", run.name, err)
			}
			for i := 1; i < len(res.Facilities); i++ {
				a, b := res.Facilities[i-1], res.Facilities[i]
				if a.Score > b.Score || (a.Score == b.Score && a.ID >= b.ID) {
					t.Fatalf("%s: results out of (score, id) order at %d: (%g, %d) before (%g, %d)",
						run.name, i, a.Score, a.ID, b.Score, b.ID)
				}
			}
			samePrunedFacilities(t, run.name+" vs naive", res.Facilities, naive.Facilities)

			prunedOpt := run.opt
			prunedOpt.Bounds = bounds
			pruned, err := TopK(run.src, loc, agg, k, prunedOpt)
			if err != nil {
				t.Fatalf("%s pruned: %v", run.name, err)
			}
			samePrunedFacilities(t, run.name+" pruned", pruned.Facilities, res.Facilities)
			if pruned.Stats != res.Stats {
				t.Fatalf("%s: stats with bounds %+v, without %+v",
					run.name, pruned.Stats, res.Stats)
			}
		}
	})
}

// FuzzWithinInvariants drives the budget range query over small random
// networks with fuzzer-chosen integer budgets and checks:
//
//  1. soundness: every returned facility's full cost vector fits the budget
//     component-wise and matches the baseline's materialised vector;
//  2. completeness: every reachable facility the baseline proves within
//     budget is returned;
//  3. pruned-vs-unpruned byte-identity under the lower-bound index, with
//     work statistics only ever shrinking.
func FuzzWithinInvariants(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(4), uint8(4), uint8(2), uint8(0), true, uint8(7))
	f.Add(int64(7), uint8(20), uint8(0), uint8(8), uint8(3), uint8(2), false, uint8(12))
	f.Add(int64(42), uint8(3), uint8(9), uint8(1), uint8(4), uint8(5), true, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nodes, extra, facs, d, locBits uint8, directed bool, budBits uint8) {
		g, loc := fuzzInstance(t, seed, nodes, extra, facs, d, locBits, directed)
		budget := make(vec.Costs, g.D())
		for i := range budget {
			// Integer budgets in [1, 12]: small enough to cut the search,
			// large enough to usually catch a few facilities, and exactly
			// representable so budget-boundary ties are exact.
			budget[i] = float64(1 + (int(budBits)+3*i)%12)
		}

		mem := expand.NewMemorySource(g)
		vectors, _, err := MaterializeAll(mem, loc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fits := func(v vec.Costs) bool {
			for i := range v {
				if !(v[i] <= budget[i]) { // NaN/+Inf never fits
					return false
				}
			}
			return true
		}
		bounds := index.FromGraph(g)

		fs := flat.Compile(g)
		for _, run := range []struct {
			name string
			opt  Options
			src  expand.Source
		}{
			{"mem/LSA", Options{}, mem},
			{"flat/CEA", Options{Engine: CEA}, fs},
		} {
			res, err := Within(run.src, loc, budget, run.opt)
			if err != nil {
				t.Fatalf("%s: %v", run.name, err)
			}
			got := make(map[graph.FacilityID]bool, len(res.Facilities))
			for _, fac := range res.Facilities {
				got[fac.ID] = true
				want, ok := vectors[fac.ID]
				if !ok {
					t.Fatalf("%s: returned facility %d is unreachable per the baseline", run.name, fac.ID)
				}
				if !fac.Costs.Equal(want) {
					t.Fatalf("%s: facility %d costs %v, baseline materialised %v", run.name, fac.ID, fac.Costs, want)
				}
				if !fits(fac.Costs) {
					t.Fatalf("%s: facility %d (%v) exceeds budget %v", run.name, fac.ID, fac.Costs, budget)
				}
			}
			for id, v := range vectors {
				if fits(v) && !got[id] {
					t.Fatalf("%s: facility %d (%v) fits budget %v but is missing", run.name, id, v, budget)
				}
			}

			prunedOpt := run.opt
			prunedOpt.Bounds = bounds
			pruned, err := Within(run.src, loc, budget, prunedOpt)
			if err != nil {
				t.Fatalf("%s pruned: %v", run.name, err)
			}
			samePrunedFacilities(t, run.name+" pruned", pruned.Facilities, res.Facilities)
			if pruned.Stats.NodeExpansions > res.Stats.NodeExpansions {
				t.Fatalf("%s: pruned run expanded %d nodes > unpruned %d",
					run.name, pruned.Stats.NodeExpansions, res.Stats.NodeExpansions)
			}
		}
	})
}
