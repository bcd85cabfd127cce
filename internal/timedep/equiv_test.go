package timedep

import (
	"fmt"
	"math/rand"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// The time-dependent equivalence suite, mirroring internal/flat's: for
// seeded random networks with small integer costs and integer profile
// multipliers — so exact cost ties survive scaling — every query family
// must return byte-identical results over the compiled overlay as over the
// reference Snapshot + MemorySource path, at random instants, exactly on
// interval boundaries, and over whole periods.

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

func sameResult(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	sameFacilities(t, label, got.Facilities, want.Facilities)
	if got.Stats.Pops != want.Stats.Pops {
		t.Errorf("%s: %d pops, want %d", label, got.Stats.Pops, want.Stats.Pops)
	}
	if got.Stats.NodeExpansions != want.Stats.NodeExpansions {
		t.Errorf("%s: %d node expansions, want %d", label, got.Stats.NodeExpansions, want.Stats.NodeExpansions)
	}
}

// randomProfiled builds a random integer-cost network with random integer
// profiles on a few edges and returns it with its query locations.
func randomProfiled(t *testing.T, directed bool, seed int64) (*Network, []graph.Location) {
	t.Helper()
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes:        200,
		Facilities:   40,
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
	n := New(inst.Graph)
	rng := rand.New(rand.NewSource(seed * 31))
	for i := 0; i < 4; i++ {
		e := graph.EdgeID(rng.Intn(inst.Graph.NumEdges()))
		nb := 1 + rng.Intn(3)
		times := make([]float64, 0, nb)
		at := rng.Float64() * 30
		for len(times) < nb {
			times = append(times, at)
			at += 1 + rng.Float64()*25
		}
		mult := make([]vec.Costs, nb)
		for j := range mult {
			m := make(vec.Costs, inst.Graph.D())
			for c := range m {
				m[c] = float64(1 + rng.Intn(3)) // integer multipliers keep ties
			}
			mult[j] = m
		}
		if err := n.SetProfile(e, Profile{Times: times, Mult: mult}); err != nil {
			t.Fatal(err)
		}
	}
	return n, inst.Queries
}

// probeInstants covers the time axis: before the first breakpoint, exactly
// on every breakpoint, and random interior instants.
func probeInstants(n *Network, rng *rand.Rand) []float64 {
	out := []float64{-5}
	breaks := n.Breakpoints(0, 100)
	out = append(out, breaks...)
	for i := 0; i < 5; i++ {
		out = append(out, rng.Float64()*110)
	}
	return out
}

func TestOverlayEquivalenceInstant(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("directed=%v/seed=%d", directed, seed), func(t *testing.T) {
				n, locs := randomProfiled(t, directed, seed)
				g := n.Base()
				rng := rand.New(rand.NewSource(seed * 7))
				agg := vec.NewWeighted(1, 0.5, 0.25)
				prunedNodes := 0

				for _, at := range probeInstants(n, rng) {
					snap, err := n.Snapshot(at)
					if err != nil {
						t.Fatal(err)
					}
					ref := expand.NewMemorySource(snap)
					for qi, loc := range locs {
						// Budget wide enough to catch a handful of facilities,
						// derived from the reference path only.
						budget := make(vec.Costs, g.D())
						probe, err := core.Nearest(ref, loc, 0, 6, core.Options{})
						if err != nil {
							t.Fatal(err)
						}
						radius := 1.0
						if k := len(probe.Facilities); k > 0 {
							radius = probe.Facilities[k-1].Score * 1.5
						}
						for i := range budget {
							budget[i] = radius
						}

						type query struct {
							name    string
							ref     func(core.Options) (*core.Result, error)
							overlay func(core.Options) (*core.Result, error)
						}
						queries := []query{
							{"skyline",
								func(o core.Options) (*core.Result, error) { return core.Skyline(ref, loc, o) },
								func(o core.Options) (*core.Result, error) { return n.SkylineAt(ctx, loc, at, o) }},
							{"topk",
								func(o core.Options) (*core.Result, error) { return core.TopK(ref, loc, agg, 4, o) },
								func(o core.Options) (*core.Result, error) { return n.TopKAt(ctx, loc, agg, 4, at, o) }},
							{"nearest",
								func(o core.Options) (*core.Result, error) { return core.Nearest(ref, loc, qi%g.D(), 5, o) },
								func(o core.Options) (*core.Result, error) { return n.NearestAt(ctx, loc, qi%g.D(), 5, at, o) }},
							{"within",
								func(o core.Options) (*core.Result, error) { return core.Within(ref, loc, budget, o) },
								func(o core.Options) (*core.Result, error) { return n.WithinAt(ctx, loc, budget, at, o) }},
						}
						for _, q := range queries {
							want, err := q.ref(core.Options{Engine: core.LSA})
							if err != nil {
								t.Fatalf("t=%g q%d %s reference: %v", at, qi, q.name, err)
							}
							// Full-stats comparisons against the snapshot
							// reference run with NoPrune: the reference path
							// has no pruning index, and pruning legitimately
							// shrinks the work counters.
							for _, eng := range []core.Engine{core.LSA, core.CEA} {
								got, err := q.overlay(core.Options{Engine: eng, NoPrune: true})
								if err != nil {
									t.Fatalf("t=%g q%d %s overlay/%v: %v", at, qi, q.name, eng, err)
								}
								sameResult(t, fmt.Sprintf("t=%g q%d %s overlay/%v", at, qi, q.name, eng), got, want)
							}
							// Pruned run (the *At default): facilities must
							// stay byte-identical; only the work may shrink.
							pruned, err := q.overlay(core.Options{})
							if err != nil {
								t.Fatalf("t=%g q%d %s overlay/pruned: %v", at, qi, q.name, err)
							}
							label := fmt.Sprintf("t=%g q%d %s overlay/pruned", at, qi, q.name)
							sameFacilities(t, label, pruned.Facilities, want.Facilities)
							if pruned.Stats.NodeExpansions > want.Stats.NodeExpansions {
								t.Errorf("%s: %d node expansions > unpruned %d",
									label, pruned.Stats.NodeExpansions, want.Stats.NodeExpansions)
							}
							prunedNodes += pruned.Stats.PrunedNodes
						}
					}
				}
				if prunedNodes == 0 {
					t.Error("pruning never fired across any instant query; the per-interval bounds are not being attached")
				}
			})
		}
	}
}

// refOverPeriod is the pre-overlay implementation, kept as the oracle: one
// Snapshot + MemorySource query per elementary interval, merging adjacent
// intervals with identical facility sets.
func refOverPeriod(t *testing.T, n *Network, from, to float64, query func(expand.Source) (*core.Result, error)) []IntervalResult {
	t.Helper()
	breaks := n.Breakpoints(from, to)
	var out []IntervalResult
	for i, start := range breaks {
		end := to
		if i+1 < len(breaks) {
			end = breaks[i+1]
		}
		snap, err := n.Snapshot(start)
		if err != nil {
			t.Fatal(err)
		}
		res, err := query(expand.NewMemorySource(snap))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) > 0 && sameIDs(out[len(out)-1].Result, res) {
			out[len(out)-1].To = end
			continue
		}
		out = append(out, IntervalResult{From: start, To: end, Result: res})
	}
	return out
}

func TestOverlayEquivalenceOverPeriod(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("directed=%v/seed=%d", directed, seed), func(t *testing.T) {
				n, locs := randomProfiled(t, directed, seed)
				agg := vec.NewWeighted(1, 1, 1)
				for _, loc := range locs {
					gotSky, err := n.SkylineOverPeriod(ctx, loc, 0, 100, core.Options{Engine: core.CEA})
					if err != nil {
						t.Fatal(err)
					}
					wantSky := refOverPeriod(t, n, 0, 100, func(s expand.Source) (*core.Result, error) {
						return core.Skyline(s, loc, core.Options{})
					})
					compareIntervals(t, "skyline", gotSky, wantSky)

					gotTop, err := n.TopKOverPeriod(ctx, loc, agg, 3, 0, 100, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					wantTop := refOverPeriod(t, n, 0, 100, func(s expand.Source) (*core.Result, error) {
						return core.TopK(s, loc, agg, 3, core.Options{})
					})
					compareIntervals(t, "topk", gotTop, wantTop)
				}
			})
		}
	}
}

func compareIntervals(t *testing.T, label string, got, want []IntervalResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d intervals, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].From != want[i].From || got[i].To != want[i].To {
			t.Fatalf("%s interval %d: [%g, %g), want [%g, %g)",
				label, i, got[i].From, got[i].To, want[i].From, want[i].To)
		}
		sameFacilities(t, fmt.Sprintf("%s interval %d", label, i),
			got[i].Result.Facilities, want[i].Result.Facilities)
	}
}
