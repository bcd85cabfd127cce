package timedep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mcn/internal/core"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// At returns the multiplier vector in effect at instant t (nil means "base
// costs unchanged").
func (p Profile) At(t float64) vec.Costs {
	// Largest i with Times[i] <= t.
	i := sort.SearchFloat64s(p.Times, t)
	if i < len(p.Times) && p.Times[i] == t {
		return p.Mult[i]
	}
	if i == 0 {
		return nil
	}
	return p.Mult[i-1]
}

// Base returns the underlying static graph.
func (n *Network) Base() *graph.Graph { return n.base }

// Snapshot materialises the static multi-cost network in effect at instant
// t. It is the reference implementation the overlay fast path is tested
// against — every query entry point answers from the compiled overlay
// instead, and per-query callers should never need a snapshot.
func (n *Network) Snapshot(t float64) (*graph.Graph, error) {
	ver := n.cur.Load()
	b := graph.NewBuilder(n.base.D(), n.base.Directed())
	for v := 0; v < n.base.NumNodes(); v++ {
		node := n.base.Node(graph.NodeID(v))
		b.AddNode(node.X, node.Y)
	}
	for e := 0; e < n.base.NumEdges(); e++ {
		edge := n.base.Edge(graph.EdgeID(e))
		b.AddEdge(edge.U, edge.V, ver.costAt(n.base, graph.EdgeID(e), t))
	}
	for f := 0; f < n.base.NumFacilities(); f++ {
		fac := n.base.Facility(graph.FacilityID(f))
		b.AddFacility(fac.Edge, fac.T)
	}
	return b.Build()
}

// CostAt returns edge e's effective cost vector at instant t.
func (n *Network) CostAt(e graph.EdgeID, t float64) (vec.Costs, error) {
	if int(e) >= n.base.NumEdges() {
		return nil, fmt.Errorf("timedep: edge %d out of range", e)
	}
	w := n.cur.Load().costAt(n.base, e, t).Clone()
	// Guard against NaN creep from pathological inputs.
	for _, v := range w {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("timedep: NaN cost on edge %d at t=%g", e, t)
		}
	}
	return w, nil
}

// costAt returns edge e of g's cost vector at instant t: the base vector,
// scaled component-wise when a profile interval covers t.
func (v *version) costAt(g *graph.Graph, e graph.EdgeID, t float64) vec.Costs {
	w := g.Edge(e).W
	if p, ok := v.profiles[e]; ok {
		return scaled(make(vec.Costs, 0, len(w)), w, p.At(t))
	}
	return w
}

var ctx = context.Background()

// rushHourNet builds a fork: q at node 0, facility A via a highway whose
// driving time triples during [8, 10), facility B via a steady side road.
//
//	0 --hw (2,1)--> 1(A)        0 --side (5,0)--> 2(B)
func rushHourNet(t *testing.T) (*Network, graph.Location, graph.FacilityID, graph.FacilityID) {
	t.Helper()
	b := graph.NewBuilder(2, false)
	testnet.AddNodes(b, 3)
	hw := b.AddEdge(0, 1, vec.Of(2, 1))
	side := b.AddEdge(0, 2, vec.Of(5, 0))
	fa := b.AddFacility(hw, 1.0)
	fb := b.AddFacility(side, 1.0)
	g := testnet.MustBuild(b)
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
		// An infinite multiplier scales a zero cost to NaN.
		{Times: []float64{1}, Mult: []vec.Costs{vec.Of(1, math.Inf(1))}},
		{Times: []float64{1}, Mult: []vec.Costs{vec.Of(math.NaN(), 1)}},
	}
	for i, p := range bad {
		if err := p.Validate(d); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestSetProfileErrors(t *testing.T) {
	n, loc, _, _ := rushHourNet(t)
	fresh, _, _, _ := rushHourNet(t)
	if err := n.SetProfile(99, Profile{Times: []float64{1}, Mult: []vec.Costs{vec.Of(1, 1)}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	// The side road's second cost is 0: an infinite multiplier would install
	// NaN, whether or not the edit keeps the axis {8, 10}.
	inf := math.Inf(1)
	for name, p := range map[string]Profile{
		"axis kept":  {Times: []float64{8, 10}, Mult: []vec.Costs{vec.Of(1, inf), vec.Of(1, 1)}},
		"axis moved": {Times: []float64{7}, Mult: []vec.Costs{vec.Of(1, inf)}},
	} {
		if err := n.SetProfile(1, p); err == nil {
			t.Errorf("%s: infinite multiplier on a zero cost accepted", name)
		}
		if got := n.Breakpoints(0, 24); !reflect.DeepEqual(got, []float64{0, 8, 10}) {
			t.Errorf("%s: a rejected edit moved the axis to %v", name, got)
		}
		for _, at := range []float64{7.5, 9} {
			if _, err := n.CostAt(1, at); err != nil {
				t.Errorf("%s: CostAt(side, %g): %v", name, at, err)
			}
			got, err := n.SkylineAt(ctx, loc, at, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.SkylineAt(ctx, loc, at, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameFacilityList(got.Facilities, want.Facilities) {
				t.Errorf("%s: t=%g skyline %v after a rejected edit, want %v", name, at, got.Facilities, want.Facilities)
			}
		}
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
		got := ids(iv.Result)
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
	static, err := core.Skyline(testnet.NewMemorySource(g), loc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(intervals[0].Result, static) {
		t.Error("period result differs from static query")
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

// sameFacilityList reports whether two results list the same facilities,
// costs and scores in the same order.
func sameFacilityList(a, b []core.Facility) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !a[i].Costs.Equal(b[i].Costs) || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}
