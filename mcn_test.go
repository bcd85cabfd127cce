package mcn

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mcn/internal/core"
	"mcn/internal/graph"
)

// ctx is the do-nothing context the facade tests thread through the
// context-first query API; cancellation behaviour has its own tests.
var ctx = context.Background()

// cityGraph builds a small deterministic city for facade tests: a 2-cost
// grid-ish network with a handful of facilities.
func cityGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(2, false)
	// 3x2 grid of intersections.
	var n [6]NodeID
	for i := range n {
		n[i] = b.AddNode(float64(i%3), float64(i/3))
	}
	edges := []struct {
		u, v NodeID
		w    Costs
	}{
		{n[0], n[1], Of(2, 5)},
		{n[1], n[2], Of(3, 3)},
		{n[3], n[4], Of(4, 2)},
		{n[4], n[5], Of(2, 2)},
		{n[0], n[3], Of(1, 6)},
		{n[1], n[4], Of(2, 2)},
		{n[2], n[5], Of(5, 1)},
	}
	var ids []EdgeID
	for _, e := range edges {
		ids = append(ids, b.AddEdge(e.u, e.v, e.w))
	}
	b.AddFacility(ids[1], 0.5)
	b.AddFacility(ids[2], 0.25)
	b.AddFacility(ids[6], 0.75)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFacadeSkylineEnginesAgree(t *testing.T) {
	g := cityGraph(t)
	net := FromGraph(g)
	loc, err := LocationAtNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	lsa, err := net.Skyline(ctx, loc, WithEngine(LSA))
	if err != nil {
		t.Fatal(err)
	}
	cea, err := net.Skyline(ctx, loc, WithEngine(CEA))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := net.BaselineSkyline(ctx, loc)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := idsSorted(lsa), idsSorted(cea), idsSorted(naive)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
		t.Errorf("engines disagree: LSA %v, CEA %v, baseline %v", a, b, c)
	}
	if len(a) == 0 {
		t.Error("expected a non-empty skyline")
	}
}

// ids returns the facility ids of r in order.
func ids(r *Result) []FacilityID {
	out := make([]FacilityID, len(r.Facilities))
	for i, f := range r.Facilities {
		out[i] = f.ID
	}
	return out
}

func idsSorted(r *Result) []FacilityID {
	out := ids(r)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestFacadeDiskRoundtrip(t *testing.T) {
	g := cityGraph(t)
	path := filepath.Join(t.TempDir(), "city.mcn")
	if err := CreateDatabase(g, path); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDatabaseOptions(path, 0.5, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.D() != 2 {
		t.Errorf("D = %d", db.D())
	}

	loc, err := graph.LocationAt(g, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := FromGraph(g).Skyline(ctx, loc)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := db.Skyline(ctx, loc, WithEngine(CEA))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idsSorted(mem), idsSorted(disk)) {
		t.Errorf("disk skyline %v != memory skyline %v", idsSorted(disk), idsSorted(mem))
	}
	stats, ok := db.IOStats()
	if !ok || stats.Logical == 0 {
		t.Errorf("disk query reported no I/O: %+v ok=%v", stats, ok)
	}
	db.ResetIOStats()
	if s, _ := db.IOStats(); s.Logical != 0 {
		t.Error("ResetIOStats did not clear counters")
	}
}

func TestFacadeTopKAndIterator(t *testing.T) {
	g := cityGraph(t)
	net := FromGraph(g)
	loc, err := LocationAtNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	agg := WeightedSum(0.7, 0.3)
	res, err := net.TopK(ctx, loc, agg, 2, WithEngine(CEA))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 2 {
		t.Fatalf("top-2 returned %d", len(res.Facilities))
	}
	it, err := net.TopKIterator(ctx, loc, agg)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for i := 0; i < 2; i++ {
		f, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("iterator ended early: %v %v", ok, err)
		}
		if math.Abs(f.Score-res.Facilities[i].Score) > 1e-9 {
			t.Errorf("incremental score %g != batch %g", f.Score, res.Facilities[i].Score)
		}
	}
}

func TestFacadeProgressive(t *testing.T) {
	g := cityGraph(t)
	net := FromGraph(g)
	loc, _ := LocationAtNode(g, 0)
	var streamed []FacilityID
	res, err := net.Skyline(ctx, loc, Progressive(func(f Facility) { streamed = append(streamed, f.ID) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Facilities) {
		t.Errorf("streamed %d, result %d", len(streamed), len(res.Facilities))
	}
}

func TestFacadeWithoutEnhancements(t *testing.T) {
	g := cityGraph(t)
	net := FromGraph(g)
	loc, _ := LocationAtNode(g, 2)
	a, err := net.Skyline(ctx, loc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Skyline(ctx, loc, func(o *core.Options) { o.NoEnhancements = true })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idsSorted(a), idsSorted(b)) {
		t.Error("enhancements changed the result")
	}
}

func TestFacadeMaintain(t *testing.T) {
	g := cityGraph(t)
	net := FromGraph(g)
	loc, _ := LocationAtNode(g, 0)
	m, err := net.Maintain(ctx, loc)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	before := len(m.Skyline())
	if _, err := m.Insert(0, 0.1); err != nil {
		t.Fatal(err)
	}
	after := len(m.Skyline())
	if after < before {
		// A very close facility can only shrink the skyline by dominating
		// members, or grow it by joining; both are fine — just exercise it.
		t.Logf("skyline shrank from %d to %d after insert", before, after)
	}
}

func TestFacadeSynthetic(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{Nodes: 2000, Facilities: 300, D: 3, Dist: "correlated", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if g.D() != 3 || g.NumFacilities() != 300 {
		t.Errorf("synthetic graph: d=%d facilities=%d", g.D(), g.NumFacilities())
	}
	qs := RandomQueries(g, 5, 9)
	if len(qs) != 5 {
		t.Fatalf("queries = %d", len(qs))
	}
	net := FromGraph(g)
	res, err := net.Skyline(ctx, qs[0], WithEngine(CEA))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) == 0 {
		t.Error("synthetic skyline empty")
	}
}

func TestFacadeSyntheticBadDist(t *testing.T) {
	if _, err := Synthetic(SyntheticConfig{Nodes: 100, Facilities: 5, Dist: "bogus"}); err == nil {
		t.Error("bad distribution accepted")
	}
}
