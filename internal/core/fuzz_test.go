package core

import (
	"math/rand"
	"testing"

	"mcn/internal/expand"
	"mcn/internal/flat"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// FuzzSkylineInvariants drives the progressive skyline over small random
// networks — the fuzzer owns the topology size, cost granularity, query
// position and directedness — and checks the two defining invariants
// against the baseline's materialised cost vectors (MaterializeAll, the
// paper's strawman preparation):
//
//  1. mutual non-dominance: no reported facility dominates another;
//  2. maximality: every unreported reachable facility is dominated by a
//     reported one, or ties one exactly (the documented tie semantics).
//
// It also cross-checks the reported vectors against the materialised ones
// and runs both the MemorySource reference (undeclared id spaces, LSA) and
// the flat CSR path (CEA), so a fuzzed counterexample on either fails loudly. Run `make fuzz` for a
// fuzzing session; CI runs a short smoke.
func FuzzSkylineInvariants(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(4), uint8(4), uint8(2), uint8(0), true)
	f.Add(int64(7), uint8(20), uint8(0), uint8(8), uint8(3), uint8(2), false)
	f.Add(int64(42), uint8(3), uint8(9), uint8(1), uint8(4), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, nodes, extra, facs, d, locBits uint8, directed bool) {
		rng := rand.New(rand.NewSource(seed))
		nn := 2 + int(nodes)%24
		topo := gen.RandomConnected(nn, int(extra)%12, rng)
		// Small integer costs make exact ties — the hard case — common.
		costs := gen.RandomIntegerCosts(topo, 1+int(d)%4, 3, rng)
		pls := gen.UniformFacilities(topo, 1+int(facs)%12, rng)
		g, err := gen.Assemble(topo, costs, pls, directed)
		if err != nil {
			t.Fatal(err)
		}
		loc := graph.Location{
			Edge: graph.EdgeID(int(locBits) % g.NumEdges()),
			T:    float64(int(locBits)%8) / 8,
		}

		mem := expand.NewMemorySource(g)
		vectors, _, err := MaterializeAll(mem, loc, Options{})
		if err != nil {
			t.Fatal(err)
		}

		fs := flat.Compile(g)
		for _, run := range []struct {
			name string
			opt  Options
			src  expand.Source
		}{
			{"mem/LSA", Options{}, mem},
			{"flat/CEA", Options{Engine: CEA}, fs},
		} {
			res, err := Skyline(run.src, loc, run.opt)
			if err != nil {
				t.Fatalf("%s: %v", run.name, err)
			}
			// Result vectors may carry unknown components (the search can end
			// before every expansion reaches an emitted facility); known
			// components must match the baseline exactly, and the dominance
			// invariants are checked on the baseline's complete vectors.
			inSky := make(map[graph.FacilityID]bool, len(res.Facilities))
			for _, fac := range res.Facilities {
				inSky[fac.ID] = true
				want, ok := vectors[fac.ID]
				if !ok {
					t.Fatalf("%s: reported facility %d is unreachable per the baseline", run.name, fac.ID)
				}
				for i, c := range fac.Costs {
					if !vec.IsUnknown(c) && c != want[i] {
						t.Fatalf("%s: facility %d costs %v, baseline materialised %v", run.name, fac.ID, fac.Costs, want)
					}
				}
			}
			// Invariant 1: mutual non-dominance.
			for i, a := range res.Facilities {
				for j, b := range res.Facilities {
					if i != j && vectors[a.ID].Dominates(vectors[b.ID]) {
						t.Fatalf("%s: reported %d dominates reported %d (%v ≺ %v)",
							run.name, a.ID, b.ID, vectors[a.ID], vectors[b.ID])
					}
				}
			}
			// Invariant 2: maximality modulo exact ties.
			for id, v := range vectors {
				if inSky[id] {
					continue
				}
				covered := false
				for _, fac := range res.Facilities {
					if w := vectors[fac.ID]; w.Dominates(v) || w.Equal(v) {
						covered = true
						break
					}
				}
				if !covered {
					t.Fatalf("%s: facility %d (%v) neither reported, dominated nor tied", run.name, id, v)
				}
			}
		}

		// The conventional operator over the same vectors must agree on the
		// undominated set (NaiveSkyline keeps exact-tie duplicates; the
		// progressive result is a subset covering every vector).
		naive, err := NaiveSkyline(mem, loc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(naive.Facilities) > 0 && len(vectors) > 0 {
			res, err := Skyline(mem, loc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			resIDs := make(map[graph.FacilityID]bool)
			for _, fac := range res.Facilities {
				resIDs[fac.ID] = true
			}
			for _, fac := range naive.Facilities {
				if resIDs[fac.ID] {
					continue
				}
				tied := false
				for id := range resIDs {
					if vectors[id].Equal(fac.Costs) {
						tied = true
						break
					}
				}
				if !tied {
					t.Fatalf("naive skyline member %d (%v) missing from progressive result without a tie",
						fac.ID, fac.Costs)
				}
			}
		}
	})
}
