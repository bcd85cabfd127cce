package timedep

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"mcn/internal/core"
	"mcn/internal/flat"
	"mcn/internal/graph"
	"mcn/internal/rescache"
	"mcn/internal/vec"
)

// SetProfile stores a copy: a caller that reuses or mutates its Profile
// afterwards must not move a breakpoint past Validate or change a cost.
func TestSetProfileCopiesProfile(t *testing.T) {
	n, loc, _, _ := rushHourNet(t)
	sky := func() []graph.FacilityID {
		t.Helper()
		res, err := n.SkylineAt(ctx, loc, 9, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.IDs()
	}
	p := Profile{Times: []float64{8, 10}, Mult: []vec.Costs{vec.Of(3, 1), vec.Of(1, 1)}}
	if err := n.SetProfile(0, p); err != nil {
		t.Fatal(err)
	}
	cost, err := n.CostAt(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	breaks, skyline := n.Breakpoints(0, 24), sky()

	p.Mult[0][0] = 1000
	p.Times[0] = -5

	if got, _ := n.CostAt(0, 9); !got.Equal(cost) {
		t.Errorf("CostAt after mutating the caller's profile = %v, want %v", got, cost)
	}
	if got := n.Breakpoints(0, 24); !reflect.DeepEqual(got, breaks) {
		t.Errorf("Breakpoints after mutating the caller's profile = %v, want %v", got, breaks)
	}
	if got := sky(); !reflect.DeepEqual(got, skyline) {
		t.Errorf("SkylineAt after mutating the caller's profile = %v, want %v", got, skyline)
	}
}

// An axis-preserving edit shares every interval matrix whose costs it does
// not change with the previous version, pointer for pointer, and copies the
// others with only the edited edge's d slots different.
func TestSetProfileSharesUnchangedIntervals(t *testing.T) {
	n, _ := randomProfiled(t, false, 2)
	g := n.Base()
	prev := n.cur.Load()
	e := slices.Min(slices.Collect(maps.Keys(prev.profiles)))
	p := prev.profiles[e]
	edited := Profile{Times: p.Times, Mult: append([]vec.Costs{p.Mult[0].Scale(2)}, p.Mult[1:]...)}
	if err := n.SetProfile(e, edited); err != nil {
		t.Fatal(err)
	}
	next := n.cur.Load()
	if !reflect.DeepEqual(next.times, prev.times) {
		t.Fatal("the edit moved the axis; the test needs an axis-preserving one")
	}
	changed, want := 0, 0
	for k := 0; k < next.ov.NumIntervals(); k++ {
		if at := next.start(k); at >= p.Times[0] && (len(p.Times) == 1 || at < p.Times[1]) {
			want++ // the edited multiplier's span
		}
		pv, nv := prev.ov.Interval(k), next.ov.Interval(k)
		if !matrixChanged(t, g, pv, nv, e) {
			if first(t, pv) != first(t, nv) {
				t.Errorf("interval %d: edge %d's cost is unchanged but the matrix was copied", k, e)
			}
			continue
		}
		changed++
		if first(t, pv) == first(t, nv) {
			t.Fatalf("interval %d: edited in place; the previous version changed under its readers", k)
		}
	}
	if changed != want || want == 0 {
		t.Errorf("%d intervals copied, want the %d the edited multiplier covers", changed, want)
	}
}

// matrixChanged reports whether edge e's costs differ between two views of
// one interval, and fails the test if any other edge's do.
func matrixChanged(t *testing.T, g *graph.Graph, a, b *flat.View, e graph.EdgeID) bool {
	t.Helper()
	changed := false
	for i := 0; i < g.NumEdges(); i++ {
		wa, _ := a.EdgeCosts(graph.EdgeID(i))
		wb, _ := b.EdgeCosts(graph.EdgeID(i))
		if wa.Equal(wb) {
			continue
		}
		if graph.EdgeID(i) != e {
			t.Fatalf("edge %d's costs changed; only edge %d was edited", i, e)
		}
		changed = true
	}
	return changed
}

// first returns the address of an interval matrix's first cost.
func first(t *testing.T, v *flat.View) *float64 {
	t.Helper()
	w, err := v.EdgeCosts(0)
	if err != nil {
		t.Fatal(err)
	}
	return &w[0]
}

// Only WithinAt reads the pruning index, so only WithinAt builds it.
func TestFloorIndexBuiltOnlyForWithin(t *testing.T) {
	n, locs := randomProfiled(t, true, 3)
	loc, agg := locs[0], vec.NewWeighted(1, 1, 1)
	for name, run := range map[string]func() error{
		"SkylineAt": func() error { _, err := n.SkylineAt(ctx, loc, 12, core.Options{}); return err },
		"TopKAt":    func() error { _, err := n.TopKAt(ctx, loc, agg, 3, 12, core.Options{}); return err },
		"NearestAt": func() error { _, err := n.NearestAt(ctx, loc, 1, 3, 12, core.Options{}); return err },
		"SkylineOverPeriod": func() error {
			_, err := n.SkylineOverPeriod(ctx, loc, 0, 100, core.Options{})
			return err
		},
		"TopKOverPeriod": func() error {
			_, err := n.TopKOverPeriod(ctx, loc, agg, 3, 0, 100, core.Options{})
			return err
		},
	} {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n.cur.Load().bounds != nil {
			t.Fatalf("%s built the pruning index", name)
		}
	}
	if _, err := n.WithinAt(ctx, loc, vec.Of(5, 5, 5), 12, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if n.cur.Load().bounds == nil {
		t.Fatal("WithinAt ran without the pruning index")
	}
}

// The race fence: an edit published after instant loaded its version, whose
// invalidation therefore may predate Do's version snapshot, must keep the
// answer out of the cache. The query function publishes a successor before
// it computes; the same query without the publish is cached.
func TestSupersededAnswerNotCached(t *testing.T) {
	for _, publish := range []bool{true, false} {
		n, locs := randomProfiled(t, false, 1)
		cache := rescache.New(rescache.Options{Entries: 16})
		n.EnableResultCache(cache)
		loc := locs[0]
		_, err := n.instant(ctx, loc, 5, core.Options{}, rescache.KeySpec{Kind: rescache.KindSkyline},
			func(view *flat.View, opt core.Options) (*core.Result, error) {
				if publish {
					v := n.cur.Load()
					n.cur.Store(&version{profiles: v.profiles, times: v.times, ov: v.ov, axis: v.axis})
				}
				return core.Skyline(view, loc, opt)
			})
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{true: 0, false: 1}[publish]; cache.Len() != want {
			t.Errorf("publish=%v: %d cached entries, want %d", publish, cache.Len(), want)
		}
	}
}

// An edit that moves the axis renumbers the intervals, so the cache keys
// carry the axis number. Here the new version caches its interval 2, rush
// hour; then the old version is re-published, standing for a query that
// loaded it before the edit, and asks for its own interval 2, the evening.
// It must not be answered from the new version's entry.
func TestAxisChangeRenumbersCacheKeys(t *testing.T) {
	n, loc, fa, fb := rushHourNet(t) // axis {8, 10}: interval 2 is [10, +Inf)
	n.EnableResultCache(rescache.New(rescache.Options{Entries: 16}))
	old := n.cur.Load()
	if err := n.SetProfile(0, Profile{
		Times: []float64{6, 8, 10},
		Mult:  []vec.Costs{vec.Of(1, 1), vec.Of(3, 1), vec.Of(1, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	// Axis {6, 8, 10}: interval 2 is [8, 10), where B dominates A.
	rush, err := n.SkylineAt(ctx, loc, 9, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rush.IDs(); !reflect.DeepEqual(got, []graph.FacilityID{fb}) {
		t.Fatalf("rush-hour skyline %v, want [%d]", got, fb)
	}
	n.cur.Store(old)
	evening, err := n.SkylineAt(ctx, loc, 12, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := evening.IDs()
	slices.Sort(got)
	if want := []graph.FacilityID{fa, fb}; !reflect.DeepEqual(got, want) {
		t.Fatalf("evening skyline under the previous axis = %v, want %v", got, want)
	}
}
