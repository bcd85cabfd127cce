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
						// One index, numbered once for each path's source.
						shared := index.FromGraph(snap)
						sharedFlat := n.ov.Base().Bounds(shared)
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
									sharedGot, err := q.overlay(core.Options{Engine: eng, Bounds: sharedFlat})
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

// TestOverlayEquivalenceOverPeriod checks sweeps against the reference over
// the shapes a read-set skip could get wrong: sub-ranges that start and end
// mid-interval, both engines with and without the enhancements, profiled
// query edges, profiled
// facility-carrying edges, segments that repeat the previous segment's
// multipliers, a shared breakpoint set where no interval may skip, and a
// query edge whose cost only its EdgeInfo read sees.
func TestOverlayEquivalenceOverPeriod(t *testing.T) {
	opts := []core.Options{
		{Engine: core.LSA}, {Engine: core.CEA},
		{Engine: core.LSA, NoEnhancements: true}, {Engine: core.CEA, NoEnhancements: true},
	}
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("directed=%v/seed=%d", directed, seed), func(t *testing.T) {
				for _, shape := range []string{"random", "adversarial", "shared-axis"} {
					t.Run(shape, func(t *testing.T) {
						n, locs := randomProfiled(t, directed, seed)
						switch shape {
						case "adversarial":
							profileAdversarial(t, n, locs)
						case "shared-axis":
							n = sharedAxis(t, n.Base(), locs, seed)
						}
						rng := rand.New(rand.NewSource(seed * 13))
						agg := vec.NewWeighted(1, 1, 1)
						for li, loc := range locs {
							for _, span := range periods(n, rng) {
								from, to := span[0], span[1]
								for _, o := range opts {
									label := fmt.Sprintf("q%d [%g, %g) %v noenh=%v", li, from, to, o.Engine, o.NoEnhancements)
									ref := core.Options{NoEnhancements: o.NoEnhancements}
									gotSky, err := n.SkylineOverPeriod(ctx, loc, from, to, o)
									if err != nil {
										t.Fatal(err)
									}
									wantSky := refOverPeriod(t, n, from, to, func(s expand.Source) (*core.Result, error) {
										return core.Skyline(s, loc, ref)
									})
									compareIntervals(t, label+" skyline", gotSky, wantSky)

									gotTop, err := n.TopKOverPeriod(ctx, loc, agg, 3, from, to, o)
									if err != nil {
										t.Fatal(err)
									}
									wantTop := refOverPeriod(t, n, from, to, func(s expand.Source) (*core.Result, error) {
										return core.TopK(s, loc, agg, 3, ref)
									})
									compareIntervals(t, label+" topk", gotTop, wantTop)
								}
							}
						}
					})
				}
			})
		}
	}
	t.Run("query edge read by EdgeInfo alone", func(t *testing.T) {
		// A directed fork whose query edge 0→1 leaves a node nothing reaches:
		// only expand.New's EdgeInfo reads the edge's cost, which offsets
		// every facility equally. Under the max aggregate the offset still
		// reorders them: top-1 is C = (2, 2) before t = 10, B = (5, 3) after.
		b := graph.NewBuilder(2, true)
		b.AddNodes(4)
		q := b.AddEdge(0, 1, vec.Of(1, 1))
		b.AddFacility(b.AddEdge(1, 2, vec.Of(0, 2)), 1)
		b.AddFacility(b.AddEdge(1, 3, vec.Of(1, 1)), 1)
		n := New(b.MustBuild())
		if err := n.SetProfile(q, Profile{Times: []float64{10}, Mult: []vec.Costs{vec.Of(5, 1)}}); err != nil {
			t.Fatal(err)
		}
		loc, agg := graph.Location{Edge: q}, vec.NewMax(1, 1)
		want := refOverPeriod(t, n, 0, 20, func(s expand.Source) (*core.Result, error) {
			return core.TopK(s, loc, agg, 1, core.Options{})
		})
		if len(want) != 2 {
			t.Fatalf("reference sweep has %d intervals; the profile must flip the answer", len(want))
		}
		got, err := n.TopKOverPeriod(ctx, loc, agg, 1, 0, 20, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		compareIntervals(t, "topk", got, want)
	})
}

// periods returns the whole probed axis [0, 100) plus two sub-ranges that
// start and end strictly inside elementary intervals (possibly the same one).
func periods(n *Network, rng *rand.Rand) [][2]float64 {
	b := append(n.Breakpoints(0, 100), 100) // b[0] is 0 itself
	inside := func(i int, lo, hi float64) float64 {
		return b[i] + (lo+(hi-lo)*rng.Float64())*(b[i+1]-b[i])
	}
	out := [][2]float64{{0, 100}}
	for range 2 {
		i := rng.Intn(len(b) - 1)
		j := i + rng.Intn(len(b)-1-i)
		out = append(out, [2]float64{inside(i, 0.1, 0.4), inside(j, 0.6, 0.9)})
	}
	return out
}

// profileAdversarial profiles every query edge and two facility-carrying
// edges with segments that repeat the previous segment's multipliers, on
// breakpoints of their own.
func profileAdversarial(t *testing.T, n *Network, locs []graph.Location) {
	t.Helper()
	g := n.Base()
	edges := []graph.EdgeID{g.Facility(0).Edge, g.Facility(graph.FacilityID(g.NumFacilities() / 2)).Edge}
	for _, loc := range locs {
		edges = append(edges, loc.Edge)
	}
	a, b := vec.Of(2, 0.5, 1), vec.Of(0.5, 3, 2)
	for i, e := range edges {
		shift := float64(i)
		p := Profile{Times: []float64{11.5 + shift, 40.25, 55 + shift, 70.5}, Mult: []vec.Costs{a, a, b, b}}
		if err := n.SetProfile(e, p); err != nil {
			t.Fatal(err)
		}
	}
}

// sharedAxis returns a network over g whose profiles — on the query edges
// and a dozen random ones — all share one breakpoint set, so every interval
// boundary changes every profiled edge.
func sharedAxis(t *testing.T, g *graph.Graph, locs []graph.Location, seed int64) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed * 17))
	times := []float64{10, 20, 35, 50, 65, 80}
	edits := map[graph.EdgeID]Profile{}
	for _, loc := range locs {
		edits[loc.Edge] = Profile{}
	}
	for len(edits) < len(locs)+12 {
		edits[graph.EdgeID(rng.Intn(g.NumEdges()))] = Profile{}
	}
	n := New(g)
	for e := range edits {
		p := Profile{Times: times}
		for range times {
			m := make(vec.Costs, g.D())
			for c := range m {
				m[c] = []float64{0.5, 1, 2, 3}[rng.Intn(4)]
			}
			p.Mult = append(p.Mult, m)
		}
		edits[e] = p
	}
	if err := n.setProfiles(edits); err != nil {
		t.Fatal(err)
	}
	return n
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
