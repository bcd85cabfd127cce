package timedep

import (
	"math/rand"
	"testing"

	"mcn/internal/core"
	"mcn/internal/flat"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// sweepCase is one seeded 6-interval sweep on the td2k shape: a location, a
// range from one breakpoint of the axis to the sixth after it (as the
// benchmark's period queries are cut), a query kind and an engine.
type sweepCase struct {
	loc      graph.Location
	from, to float64
	topk     bool
	engine   core.Engine
}

// sweepCases draws count locations and ranges from rng and crosses each
// with {skyline, top-k} × {LSA, CEA}.
func sweepCases(n *Network, count int, rng *rand.Rand) []sweepCase {
	breaks := n.Breakpoints(0, 24)[1:] // [0] is the range's own start
	var out []sweepCase
	for range count {
		loc := graph.Location{Edge: graph.EdgeID(rng.Intn(n.Base().NumEdges())), T: rng.Float64()}
		i := rng.Intn(len(breaks) - 6)
		for _, topk := range []bool{false, true} {
			for _, eng := range []core.Engine{core.LSA, core.CEA} {
				out = append(out, sweepCase{loc, breaks[i], breaks[i+6], topk, eng})
			}
		}
	}
	return out
}

// run sweeps c on n, counting the static queries the sweep executes.
func (c sweepCase) run(tb testing.TB, n *Network, queries *int) []IntervalResult {
	tb.Helper()
	agg := vec.NewWeighted(1, 1, 1, 1)
	out, err := n.overPeriod(ctx, c.loc, c.from, c.to, core.Options{Engine: c.engine},
		func(v *flat.View, opt core.Options) (*core.Result, error) {
			*queries++
			if c.topk {
				return core.TopK(v, c.loc, agg, 4, opt)
			}
			return core.Skyline(v, c.loc, opt)
		})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestSweepSkipsUnreadIntervals pins the sweep's work. Under mcnserve
// -timedep's synthetic profiles each interval boundary of the td2k shape
// changes one edge, so a 6-interval sweep re-runs only the intervals where
// an edge its last run read changed cost (a sweep that ran every interval
// averaged 6.0 queries). On a network whose every edge is profiled on one
// shared breakpoint set, every boundary changes every read: nothing may
// skip.
func TestSweepSkipsUnreadIntervals(t *testing.T) {
	g := td2k(t).Graph
	synthetic := New(g)
	if err := AttachSyntheticProfiles(synthetic, g.NumEdges()/10, 1); err != nil {
		t.Fatal(err)
	}
	shared := New(g)
	rng := rand.New(rand.NewSource(1))
	edits := make(map[graph.EdgeID]Profile, g.NumEdges())
	for e := range g.NumEdges() {
		p := Profile{Times: []float64{5, 7, 9, 11, 13, 15, 17, 19}}
		for range p.Times {
			m := make(vec.Costs, g.D())
			for j := range m {
				m[j] = 0.5 + 2.5*rng.Float64()
			}
			p.Mult = append(p.Mult, m)
		}
		edits[graph.EdgeID(e)] = p
	}
	if err := shared.setProfiles(edits); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		n        *Network
		min, max float64
	}{
		{"synthetic", synthetic, 1, 1.6},
		{"shared-axis", shared, 6, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cases := sweepCases(tc.n, 60, rand.New(rand.NewSource(1)))
			queries := 0
			for _, c := range cases {
				c.run(t, tc.n, &queries)
			}
			per := float64(queries) / float64(len(cases))
			t.Logf("%d sweeps, %.2f interval queries per sweep", len(cases), per)
			if per < tc.min || per > tc.max {
				t.Errorf("%.2f interval queries per 6-interval sweep, want [%g, %g]", per, tc.min, tc.max)
			}
		})
	}
}

// A sweep whose options carry OnResult runs every interval, as the result
// cache bypasses such queries: the callback observes each interval's
// emissions, so it fires exactly as often as the per-interval queries do.
func TestOverPeriodOnResultRunsEveryInterval(t *testing.T) {
	n, locs := randomProfiled(t, false, 1)
	for _, loc := range locs {
		want := 0
		for _, at := range n.Breakpoints(0, 100) {
			opt := core.Options{OnResult: func(core.Facility) { want++ }}
			if _, err := n.SkylineAt(ctx, loc, at, opt); err != nil {
				t.Fatal(err)
			}
		}
		got := 0
		opt := core.Options{OnResult: func(core.Facility) { got++ }}
		if _, err := n.SkylineOverPeriod(ctx, loc, 0, 100, opt); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("location %v: OnResult fired %d times over the sweep, want %d (one run per interval)", loc, got, want)
		}
	}
	// Without a callback the same sweeps skip intervals, so the rule is what
	// keeps the count.
	queries, sweeps := 0, 0
	for _, loc := range locs {
		c := sweepCase{loc: loc, from: 0, to: 100}
		c.run(t, n, &queries)
		sweeps += len(n.Breakpoints(0, 100))
	}
	if queries >= sweeps {
		t.Errorf("sweeps without OnResult ran all %d intervals; the test cannot tell the rule apart", sweeps)
	}
}
