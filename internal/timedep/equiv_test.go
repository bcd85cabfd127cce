package timedep

import (
	"fmt"
	"math/rand"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// The time-dependent period suite: for seeded random networks with small
// integer costs and profile multipliers in {0.5, 1, 2, 3} — so exact cost
// ties survive scaling — sweeps over whole periods must return
// byte-identical results over the compiled overlay as over the reference
// Snapshot + MemorySource path. Queries at an instant are the time rows of
// the differential lattice (internal/testsupport/lattice).

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

// randomProfiled takes a 200-node network from testnet's hard-case
// generator (d = 3, integer costs), profiles a few of its edges with
// multipliers drawn from {0.5, 1, 2, 3} (below and above 1, all exact in
// binary), and returns it with the generator's query locations.
func randomProfiled(t *testing.T, directed bool, seed int64) (*Network, []graph.Location) {
	t.Helper()
	inst := testnet.Generate(seed, testnet.Shape{D: 3, Directed: directed, Nodes: 200})
	n := New(inst.G)
	rng := rand.New(rand.NewSource(seed * 31))
	for i := 0; i < 4; i++ {
		e := graph.EdgeID(rng.Intn(inst.G.NumEdges()))
		nb := 1 + rng.Intn(3)
		times := make([]float64, 0, nb)
		at := rng.Float64() * 30
		for len(times) < nb {
			times = append(times, at)
			at += 1 + rng.Float64()*25
		}
		mult := make([]vec.Costs, nb)
		for j := range mult {
			m := make(vec.Costs, inst.G.D())
			for c := range m {
				m[c] = []float64{0.5, 1, 2, 3}[rng.Intn(4)] // exact: ties survive
			}
			mult[j] = m
		}
		if err := n.SetProfile(e, Profile{Times: times, Mult: mult}); err != nil {
			t.Fatal(err)
		}
	}
	return n, append([]graph.Location{inst.Loc}, inst.Locs...)
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
		testnet.AddNodes(b, 4)
		q := b.AddEdge(0, 1, vec.Of(1, 1))
		b.AddFacility(b.AddEdge(1, 2, vec.Of(0, 2)), 1)
		b.AddFacility(b.AddEdge(1, 3, vec.Of(1, 1)), 1)
		n := New(testnet.MustBuild(b))
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
