package timedep

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testnet"
	"mcn/internal/vec"
)

var ctx = context.Background()

// rushHourNet builds a fork: q at node 0, facility A via a highway whose
// driving time triples during [8, 10), facility B via a steady side road.
//
//	0 --hw (2,1)--> 1(A)        0 --side (5,0)--> 2(B)
func rushHourNet(t *testing.T) (*Network, graph.Location, graph.FacilityID, graph.FacilityID) {
	t.Helper()
	b := graph.NewBuilder(2, false)
	b.AddNodes(3)
	hw := b.AddEdge(0, 1, vec.Of(2, 1))
	side := b.AddEdge(0, 2, vec.Of(5, 0))
	fa := b.AddFacility(hw, 1.0)
	fb := b.AddFacility(side, 1.0)
	g := b.MustBuild()
	n := New(g)
	if err := n.SetProfile(hw, Profile{
		Times: []float64{8, 10},
		Mult:  []vec.Costs{vec.Of(3, 1), vec.Of(1, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	loc, err := graph.LocationAtNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return n, loc, fa, fb
}

func TestProfileAt(t *testing.T) {
	p := Profile{Times: []float64{8, 10}, Mult: []vec.Costs{vec.Of(3), vec.Of(1)}}
	if got := p.At(7.9); got != nil {
		t.Errorf("At(7.9) = %v, want base", got)
	}
	if got := p.At(8); !got.Equal(vec.Of(3)) {
		t.Errorf("At(8) = %v, want (3)", got)
	}
	if got := p.At(9.99); !got.Equal(vec.Of(3)) {
		t.Errorf("At(9.99) = %v", got)
	}
	if got := p.At(10); !got.Equal(vec.Of(1)) {
		t.Errorf("At(10) = %v", got)
	}
	if got := p.At(1e9); !got.Equal(vec.Of(1)) {
		t.Errorf("At(inf) = %v", got)
	}
}

func TestProfileValidate(t *testing.T) {
	d := 2
	ok := Profile{Times: []float64{1, 2}, Mult: []vec.Costs{vec.Of(1, 1), vec.Of(2, 2)}}
	if err := ok.Validate(d); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	bad := []Profile{
		{Times: []float64{1}, Mult: nil},
		{},
		{Times: []float64{2, 1}, Mult: []vec.Costs{vec.Of(1, 1), vec.Of(1, 1)}},
		{Times: []float64{1}, Mult: []vec.Costs{vec.Of(1)}},
		{Times: []float64{1}, Mult: []vec.Costs{vec.Of(0, 1)}},
		{Times: []float64{1}, Mult: []vec.Costs{vec.Of(-1, 1)}},
		// Non-finite breakpoints would corrupt the overlay's sorted time axis.
		{Times: []float64{math.NaN()}, Mult: []vec.Costs{vec.Of(1, 1)}},
		{Times: []float64{1, math.NaN()}, Mult: []vec.Costs{vec.Of(1, 1), vec.Of(2, 2)}},
		{Times: []float64{math.Inf(1)}, Mult: []vec.Costs{vec.Of(1, 1)}},
	}
	for i, p := range bad {
		if err := p.Validate(d); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestSetProfileErrors(t *testing.T) {
	n, _, _, _ := rushHourNet(t)
	if err := n.SetProfile(99, Profile{Times: []float64{1}, Mult: []vec.Costs{vec.Of(1, 1)}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestSnapshotAndCostAt(t *testing.T) {
	n, _, _, _ := rushHourNet(t)
	for _, tc := range []struct {
		t    float64
		want vec.Costs
	}{
		{0, vec.Of(2, 1)},
		{8, vec.Of(6, 1)},
		{9.5, vec.Of(6, 1)},
		{10, vec.Of(2, 1)},
	} {
		w, err := n.CostAt(0, tc.t)
		if err != nil {
			t.Fatal(err)
		}
		if !w.Equal(tc.want) {
			t.Errorf("CostAt(hw, %g) = %v, want %v", tc.t, w, tc.want)
		}
		snap, err := n.Snapshot(tc.t)
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Edge(0).W.Equal(tc.want) {
			t.Errorf("Snapshot(%g) edge 0 = %v, want %v", tc.t, snap.Edge(0).W, tc.want)
		}
		// The un-profiled edge must be untouched.
		if !snap.Edge(1).W.Equal(vec.Of(5, 0)) {
			t.Errorf("Snapshot(%g) edge 1 = %v", tc.t, snap.Edge(1).W)
		}
	}
}

func TestSkylineOverPeriodRushHour(t *testing.T) {
	n, loc, fa, fb := rushHourNet(t)
	// Off-peak: A=(2,1), B=(5,0) → both skyline. Rush hour: A=(6,1),
	// B=(5,0) → B dominates A? B=(5,0) vs A=(6,1): 5<6, 0<1 → yes, B alone.
	intervals, err := n.SkylineOverPeriod(ctx, loc, 0, 24, core.Options{Engine: core.CEA})
	if err != nil {
		t.Fatal(err)
	}
	if len(intervals) != 3 {
		t.Fatalf("got %d intervals, want 3: %+v", len(intervals), intervals)
	}
	checkInterval := func(i int, from, to float64, want []graph.FacilityID) {
		t.Helper()
		iv := intervals[i]
		if iv.From != from || iv.To != to {
			t.Errorf("interval %d = [%g, %g), want [%g, %g)", i, iv.From, iv.To, from, to)
		}
		got := iv.Result.IDs()
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("interval %d skyline = %v, want %v", i, got, want)
		}
	}
	checkInterval(0, 0, 8, []graph.FacilityID{fa, fb})
	checkInterval(1, 8, 10, []graph.FacilityID{fb})
	checkInterval(2, 10, 24, []graph.FacilityID{fa, fb})
}

func TestTopKOverPeriodRushHour(t *testing.T) {
	n, loc, fa, fb := rushHourNet(t)
	agg := vec.NewWeighted(1, 0.5) // time-heavy
	intervals, err := n.TopKOverPeriod(ctx, loc, agg, 1, 0, 24, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Off-peak top-1: A scores 2.5, B scores 5 → A. Rush: A 6.5, B 5 → B.
	if len(intervals) != 3 {
		t.Fatalf("got %d intervals, want 3", len(intervals))
	}
	if got := intervals[0].Result.Facilities[0].ID; got != fa {
		t.Errorf("off-peak top-1 = %d, want %d", got, fa)
	}
	if got := intervals[1].Result.Facilities[0].ID; got != fb {
		t.Errorf("rush-hour top-1 = %d, want %d", got, fb)
	}
	if got := intervals[2].Result.Facilities[0].ID; got != fa {
		t.Errorf("evening top-1 = %d, want %d", got, fa)
	}
}

func TestOverPeriodMergesStaticNetwork(t *testing.T) {
	// No profiles: the whole period collapses to one interval equal to the
	// static query.
	topo := gen.Grid(8, 8, 0.1, rand.New(rand.NewSource(1)))
	costs := gen.AssignCosts(topo, 2, gen.AntiCorrelated, rand.New(rand.NewSource(2)))
	pls := gen.UniformFacilities(topo, 20, rand.New(rand.NewSource(3)))
	g, err := gen.Assemble(topo, costs, pls, false)
	if err != nil {
		t.Fatal(err)
	}
	n := New(g)
	loc := graph.Location{Edge: 0, T: 0.5}
	intervals, err := n.SkylineOverPeriod(ctx, loc, 0, 100, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(intervals) != 1 || intervals[0].From != 0 || intervals[0].To != 100 {
		t.Fatalf("static network should give one interval, got %+v", intervals)
	}
	static, err := core.Skyline(expand.NewMemorySource(g), loc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(intervals[0].Result, static) {
		t.Error("period result differs from static query")
	}
}

// Property: at random instants, the snapshot query must equal the interval
// that covers the instant.
func TestOverPeriodMatchesSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		topo := gen.RandomConnected(6+rng.Intn(20), rng.Intn(10), rng)
		costs := gen.AssignCosts(topo, 2, gen.Independent, rng)
		pls := gen.UniformFacilities(topo, 1+rng.Intn(10), rng)
		g, err := gen.Assemble(topo, costs, pls, false)
		if err != nil {
			t.Fatal(err)
		}
		n := New(g)
		// Random profiles on a few edges.
		for i := 0; i < 1+rng.Intn(4); i++ {
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			t1 := rng.Float64() * 50
			t2 := t1 + 1 + rng.Float64()*20
			err := n.SetProfile(e, Profile{
				Times: []float64{t1, t2},
				Mult: []vec.Costs{
					vec.Of(0.5+rng.Float64()*3, 0.5+rng.Float64()*3),
					vec.Of(1, 1),
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		loc := graph.Location{Edge: graph.EdgeID(rng.Intn(g.NumEdges())), T: rng.Float64()}
		intervals, err := n.SkylineOverPeriod(ctx, loc, 0, 100, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Intervals must tile [0, 100).
		if intervals[0].From != 0 || intervals[len(intervals)-1].To != 100 {
			t.Fatalf("trial %d: bad tiling %+v", trial, intervals)
		}
		for i := 1; i < len(intervals); i++ {
			if intervals[i].From != intervals[i-1].To {
				t.Fatalf("trial %d: gap between intervals %d and %d", trial, i-1, i)
			}
		}
		for probe := 0; probe < 10; probe++ {
			at := rng.Float64() * 100
			var covering *IntervalResult
			for i := range intervals {
				if at >= intervals[i].From && at < intervals[i].To {
					covering = &intervals[i]
					break
				}
			}
			if covering == nil {
				t.Fatalf("trial %d: instant %g not covered", trial, at)
			}
			snap, err := n.Snapshot(at)
			if err != nil {
				t.Fatal(err)
			}
			want := testnet.Skyline(snap, loc)
			got := covering.Result.IDs()
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d t=%g: period skyline %v, snapshot oracle %v", trial, at, got, want)
			}
		}
	}
}

func TestOverPeriodErrors(t *testing.T) {
	n, loc, _, _ := rushHourNet(t)
	if _, err := n.SkylineOverPeriod(ctx, loc, 5, 5, core.Options{}); err == nil {
		t.Error("empty period accepted")
	}
	if _, err := n.SkylineOverPeriod(ctx, graph.Location{Edge: 99}, 0, 1, core.Options{}); err == nil {
		t.Error("invalid location accepted")
	}
	if _, err := n.CostAt(99, 0); err == nil {
		t.Error("CostAt out-of-range edge accepted")
	}
}

func TestBreakpoints(t *testing.T) {
	n, _, _, _ := rushHourNet(t)
	got := n.Breakpoints(0, 24)
	want := []float64{0, 8, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Breakpoints = %v, want %v", got, want)
	}
	// Window excluding the profile: only the period start.
	got = n.Breakpoints(11, 24)
	if !reflect.DeepEqual(got, []float64{11}) {
		t.Errorf("Breakpoints(11,24) = %v", got)
	}
	// Breakpoint exactly at from must not duplicate.
	got = n.Breakpoints(8, 24)
	if !reflect.DeepEqual(got, []float64{8, 10}) {
		t.Errorf("Breakpoints(8,24) = %v", got)
	}
	if math.IsNaN(got[0]) {
		t.Error("unexpected NaN")
	}
}

// pollCancelCtx reports itself cancelled from its n-th Err call on, so a test
// can place a cancellation at an exact poll instead of at a wall-clock time.
type pollCancelCtx struct {
	context.Context
	done  chan struct{}
	after int
	polls int
}

func (c *pollCancelCtx) Done() <-chan struct{} { return c.done }

func (c *pollCancelCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// A period sweep must observe its context inside an interval, not only
// between intervals: a deadline that passes while one per-interval query is
// running aborts that query at its next pop. The context here cancels at its
// third poll; the sweep polls once on entering the first interval, so the
// cancellation can only be seen by the per-interval query itself.
func TestOverPeriodCancelsInsideInterval(t *testing.T) {
	n, locs := randomProfiled(t, false, 1)
	if len(n.Breakpoints(0, 100)) < 2 {
		t.Fatal("instance has a single interval; the test needs a sweep")
	}
	agg := vec.NewWeighted(1, 1, 1)
	for name, sweep := range map[string]func(context.Context) ([]IntervalResult, error){
		"skyline": func(ctx context.Context) ([]IntervalResult, error) {
			return n.SkylineOverPeriod(ctx, locs[0], 0, 100, core.Options{})
		},
		"topk": func(ctx context.Context) ([]IntervalResult, error) {
			return n.TopKOverPeriod(ctx, locs[0], agg, 3, 0, 100, core.Options{})
		},
	} {
		full, err := sweep(ctx)
		if err != nil {
			t.Fatal(err)
		}
		c := &pollCancelCtx{Context: ctx, done: make(chan struct{}), after: 2}
		got, err := sweep(c)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: sweep returned %d intervals, err %v; want context.Canceled (uncancelled sweep: %d intervals)",
				name, len(got), err, len(full))
		}
		if c.polls != 3 {
			t.Errorf("%s: context polled %d times, want the sweep to stop at poll 3", name, c.polls)
		}
	}
}
