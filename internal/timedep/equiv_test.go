package timedep

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/vec"
)

// The time-dependent equivalence suite, mirroring internal/flat's: for
// seeded random networks with small integer costs and profile multipliers
// in {0.5, 1, 2, 3} — so exact cost ties survive scaling — every query
// family must return byte-identical results over the compiled overlay as
// over the reference Snapshot + MemorySource path, at random instants,
// exactly on interval boundaries, and over whole periods.

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
	if got.Stats != want.Stats {
		t.Errorf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
}

// randomProfiled builds a random integer-cost network with profiles on a
// few edges, multipliers drawn from {0.5, 1, 2, 3} (below and above 1, all
// exact in binary), and returns it with its query locations.
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
				m[c] = []float64{0.5, 1, 2, 3}[rng.Intn(4)] // exact: ties survive
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
				prunedNodes, sharedPruned := 0, 0

				// The second pass reads after an axis-moving edit, at every
				// interval start of the new axis.
				for pass := 0; pass < 2; pass++ {
					if pass == 1 {
						moveAxis(t, n)
					}
					for _, at := range probeInstants(n, rng) {
						snap, err := n.Snapshot(at)
						if err != nil {
							t.Fatal(err)
						}
						ref := expand.NewMemorySource(snap)
						shared := index.FromGraph(snap)
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
								for _, eng := range []core.Engine{core.LSA, core.CEA} {
									label := fmt.Sprintf("t=%g q%d %s overlay/%v", at, qi, q.name, eng)
									got, err := q.overlay(core.Options{Engine: eng})
									if err != nil {
										t.Fatalf("%s: %v", label, err)
									}
									if q.name != "within" {
										// Skyline, top-k and nearest ignore the
										// network's index: full Stats must match.
										sameResult(t, label, got, want)
										continue
									}
									// The *At default prunes against the network's
									// one index: facilities stay byte-identical to
									// the unpruned reference, only the work shrinks.
									sameFacilities(t, label, got.Facilities, want.Facilities)
									if got.Stats.NodeExpansions > want.Stats.NodeExpansions {
										t.Errorf("%s: %d node expansions > unpruned %d",
											label, got.Stats.NodeExpansions, want.Stats.NodeExpansions)
									}
									prunedNodes += got.Stats.PrunedNodes
									// Under one shared explicit index both paths
									// must do the same work, full Stats included.
									sharedWant, err := q.ref(core.Options{Engine: core.LSA, Bounds: shared})
									if err != nil {
										t.Fatalf("%s reference/bounds: %v", label, err)
									}
									sharedGot, err := q.overlay(core.Options{Engine: eng, Bounds: shared})
									if err != nil {
										t.Fatalf("%s/bounds: %v", label, err)
									}
									sameResult(t, label+"/bounds", sharedGot, sharedWant)
									sharedPruned += sharedGot.Stats.PrunedNodes
								}
							}
						}
					}
				}
				if prunedNodes == 0 {
					t.Error("pruning never fired across any instant query; the network's index is not being attached")
				}
				if sharedPruned == 0 {
					t.Error("the shared explicit index never pruned; its Stats comparison is vacuous")
				}
			})
		}
	}
}

// moveAxis is an axis-moving edit between reads: the lowest profiled edge's
// profile shifts by half a unit and its first multiplier drops to 0.5, so
// the edit retires instants, adds others and lowers a floor. Every interval
// start of the new axis is among probeInstants' breakpoints.
func moveAxis(t *testing.T, n *Network) {
	t.Helper()
	before := n.cur.Load()
	e := slices.Min(slices.Collect(maps.Keys(before.profiles)))
	p := before.profiles[e]
	moved := Profile{Mult: append([]vec.Costs{vec.New(n.Base().D())}, p.Mult[1:]...)}
	for i := range moved.Mult[0] {
		moved.Mult[0][i] = 0.5
	}
	for _, at := range p.Times {
		moved.Times = append(moved.Times, at+0.5)
	}
	if err := n.SetProfile(e, moved); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(n.cur.Load().times, before.times) {
		t.Fatal("the edit kept the axis; the pass needs one that moves it")
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
		sameResult(t, fmt.Sprintf("%s interval %d", label, i), got[i].Result, want[i].Result)
	}
}
