package timedep

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"mcn/internal/core"
	"mcn/internal/flat"
	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/rescache"
	"mcn/internal/vec"
)

// ids returns the facility ids of r in order.
func ids(r *core.Result) []graph.FacilityID {
	out := make([]graph.FacilityID, len(r.Facilities))
	for i, f := range r.Facilities {
		out[i] = f.ID
	}
	return out
}

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
		return ids(res)
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

// An edit copies only the edited edge's rows: every other edge's rows and
// the base matrix are shared with the previous version pointer for pointer,
// and the previous version still answers with its own costs. Both compile
// cases run the same path: an edit that keeps the axis and one that moves it.
func TestSetProfileCopiesOnlyEditedRows(t *testing.T) {
	n, _ := randomProfiled(t, false, 2)
	g := n.Base()
	e := slices.Min(slices.Collect(maps.Keys(n.cur.Load().profiles)))
	for _, name := range []string{"axis kept", "axis moved"} {
		prev := n.cur.Load()
		p := prev.profiles[e]
		edited := Profile{Times: p.Times, Mult: append([]vec.Costs{p.Mult[0].Scale(2)}, p.Mult[1:]...)}
		if name == "axis moved" {
			edited = Profile{Times: []float64{p.Times[0] - 0.5}, Mult: []vec.Costs{p.Mult[0].Scale(3)}}
		}
		before := costsAtStarts(n, prev, e)
		if err := n.SetProfile(e, edited); err != nil {
			t.Fatal(err)
		}
		next := n.cur.Load()
		if moved := !slices.Equal(next.times, prev.times); moved != (name == "axis moved") {
			t.Fatalf("%s: axis moved = %v", name, moved)
		}
		for i := range next.rows {
			if shared := next.rows[i] == prev.rows[i]; shared == (graph.EdgeID(i) == e) {
				t.Errorf("%s: edge %d's rows shared = %v; only edge %d was edited", name, i, shared, e)
			}
		}
		for i := 0; i < g.NumEdges(); i++ {
			if prev.rows[i] != nil {
				continue
			}
			was, is := n.ov.View(prev.rows, 0), n.ov.View(next.rows, 0)
			a, _ := was.EdgeInfo(graph.EdgeID(i))
			b, _ := is.EdgeInfo(graph.EdgeID(i))
			if &a.W[0] != &b.W[0] {
				t.Fatalf("%s: unprofiled edge %d reads a copied base row", name, i)
			}
		}
		if after := costsAtStarts(n, prev, e); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the previous version's costs for edge %d changed under its readers", name, e)
		}
	}
}

// costsAtStarts returns edge e's cost under version v at every interval
// start, copied.
func costsAtStarts(n *Network, v *version, e graph.EdgeID) []vec.Costs {
	var out []vec.Costs
	for k := 0; k <= len(v.times); k++ {
		view := n.ov.View(v.rows, v.start(k))
		info, _ := view.EdgeInfo(e)
		out = append(out, info.W.Clone())
	}
	return out
}

// A version whose per-edge floors equal its predecessor's shares the
// predecessor's pruning index, built or not; an edit that lowers a floor
// gets an index of its own, built on its first WithinAt.
func TestFloorIndexSharedWhileFloorsHold(t *testing.T) {
	n, locs := randomProfiled(t, false, 3)
	within := func() *index.Bounds {
		t.Helper()
		if _, err := n.WithinAt(ctx, locs[0], vec.Of(5, 5, 5), 12, core.Options{}); err != nil {
			t.Fatal(err)
		}
		return n.cur.Load().floor.bounds
	}
	built := within()
	var e graph.EdgeID
	for n.cur.Load().profiles[e].Times != nil {
		e++
	}
	// Multipliers of at least 1 floor at 1, as the unprofiled edge did.
	if err := n.SetProfile(e, Profile{Times: []float64{12, 40}, Mult: []vec.Costs{vec.Of(2, 3, 1), vec.Of(1, 1, 4)}}); err != nil {
		t.Fatal(err)
	}
	if got := n.cur.Load().floor.bounds; got != built {
		t.Fatalf("an edit keeping every floor left the index %p, want the predecessor's %p", got, built)
	}
	if got := within(); got != built {
		t.Fatal("WithinAt rebuilt an index whose floors had not changed")
	}
	if err := n.SetProfile(e, Profile{Times: []float64{12, 40}, Mult: []vec.Costs{vec.Of(2, 0.5, 1), vec.Of(1, 1, 4)}}); err != nil {
		t.Fatal(err)
	}
	if n.cur.Load().floor.bounds != nil {
		t.Fatal("an edit lowering a floor inherited the predecessor's index")
	}
	if got := within(); got == nil || got == built {
		t.Fatalf("index after lowering a floor = %p, want a new one (predecessor's %p)", got, built)
	}
	checkAdmissible(t, "lowered", n)
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
		if n.cur.Load().floor.bounds != nil {
			t.Fatalf("%s built the pruning index", name)
		}
	}
	if _, err := n.WithinAt(ctx, loc, vec.Of(5, 5, 5), 12, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if n.cur.Load().floor.bounds == nil {
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
					successor := *n.cur.Load()
					n.cur.Store(&successor)
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
	if got := ids(rush); !reflect.DeepEqual(got, []graph.FacilityID{fb}) {
		t.Fatalf("rush-hour skyline %v, want [%d]", got, fb)
	}
	n.cur.Store(old)
	evening, err := n.SkylineAt(ctx, loc, 12, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := ids(evening)
	slices.Sort(got)
	if want := []graph.FacilityID{fa, fb}; !reflect.DeepEqual(got, want) {
		t.Fatalf("evening skyline under the previous axis = %v, want %v", got, want)
	}
}
