package core

import (
	"reflect"
	"testing"

	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// A pruned query on a graph whose facilities were all placed on one far edge
// exercises the +Inf bound components (unreachable under some cost type must
// not panic or mis-prune).
func TestPrunedDisconnectedComponents(t *testing.T) {
	b := graph.NewBuilder(2, false)
	testnet.AddNodes(b, 6)
	// Two components: 0-1-2 (facility on 1-2) and 3-4-5 (no facilities).
	e01 := b.AddEdge(0, 1, vec.Of(1, 2))
	e12 := b.AddEdge(1, 2, vec.Of(2, 1))
	b.AddEdge(3, 4, vec.Of(1, 1))
	b.AddEdge(4, 5, vec.Of(1, 1))
	b.AddFacility(e12, 0.5)
	g := testnet.MustBuild(b)
	src := testnet.NewMemorySource(g)
	bounds := index.FromGraph(g)

	// From the facility's component: the index changes nothing.
	loc, err := graph.LocationAt(g, e01, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TopK(src, loc, vec.NewWeighted(1, 1), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := TopK(src, loc, vec.NewWeighted(1, 1), 1, Options{Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Facilities, want.Facilities) {
		t.Errorf("with bounds %v, without %v", got.Facilities, want.Facilities)
	}

	// From the facility-free component every bound is +Inf; queries must
	// come back empty without tripping over Inf arithmetic.
	farLoc, err := graph.LocationAtNode(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TopK(src, farLoc, vec.NewWeighted(1, 1), 1, Options{Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 0 {
		t.Errorf("facility-free component returned %d facilities", len(res.Facilities))
	}
	resW, err := Within(src, farLoc, vec.Of(100, 100), Options{Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if len(resW.Facilities) != 0 {
		t.Errorf("facility-free component Within returned %d facilities", len(resW.Facilities))
	}
}
