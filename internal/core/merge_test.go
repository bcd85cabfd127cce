package core

import (
	"math"
	"reflect"
	"testing"

	"mcn/internal/graph"
	"mcn/internal/vec"
)

func fac(id int, score float64, costs ...float64) Facility {
	return Facility{ID: graph.FacilityID(id), Costs: vec.Costs(costs), Score: score}
}

func TestMergeSkylinesIdenticalReplicasNoOp(t *testing.T) {
	mk := func() *Result {
		return &Result{
			Facilities: []Facility{fac(3, 0, 1, 9), fac(7, 0, 5, 5), fac(1, 0, 9, 1)},
			Stats:      Stats{Pops: 4, NodeExpansions: 10, Tracked: 3},
		}
	}
	got := MergeSkylines(mk(), mk(), mk())
	if !reflect.DeepEqual(got.Facilities, mk().Facilities) {
		t.Fatalf("merge of identical replicas changed facilities: %+v", got.Facilities)
	}
	if got.Stats.NodeExpansions != 30 || got.Stats.Pops != 12 {
		t.Fatalf("stats not summed: %+v", got.Stats)
	}
}

func TestMergeSkylinesCrossPartDominance(t *testing.T) {
	// Part A's (4,4) dominates part B's (5,5); B's (1,8) survives. A later
	// part's (0,0) retroactively dominates everything before it.
	a := &Result{Facilities: []Facility{fac(1, 0, 4, 4), fac(2, 0, 9, 1)}}
	b := &Result{Facilities: []Facility{fac(3, 0, 5, 5), fac(4, 0, 1, 8)}}
	got := MergeSkylines(a, b)
	want := []graph.FacilityID{1, 2, 4}
	if !reflect.DeepEqual(ids(got), want) {
		t.Fatalf("ids = %v, want %v", ids(got), want)
	}

	c := &Result{Facilities: []Facility{fac(9, 0, 0, 0)}}
	got = MergeSkylines(a, b, c)
	if !reflect.DeepEqual(ids(got), []graph.FacilityID{9}) {
		t.Fatalf("retroactive dominance: ids = %v, want [9]", ids(got))
	}
}

func TestMergeSkylinesDedupKeepsFirstOccurrence(t *testing.T) {
	a := &Result{Facilities: []Facility{fac(5, 0, 2, 3)}}
	b := &Result{Facilities: []Facility{fac(5, 0, 2, 3), fac(6, 0, 3, 2)}}
	got := MergeSkylines(a, b)
	if !reflect.DeepEqual(ids(got), []graph.FacilityID{5, 6}) {
		t.Fatalf("ids = %v, want [5 6]", ids(got))
	}
}

func TestMergeSkylinesIncompleteVectorsNeverJudged(t *testing.T) {
	// NaN components make vec.Dominates vacuously false/true in surprising
	// ways; the merge must neither drop an incomplete vector nor let it
	// dominate. [1,NaN] vs [2,0]: a naive strict check would call the first
	// dominating (NaN comparisons are all false), wrongly dropping [2,0].
	a := &Result{Facilities: []Facility{fac(1, 0, 1, math.NaN())}}
	b := &Result{Facilities: []Facility{fac(2, 0, 2, 0)}}
	got := MergeSkylines(a, b)
	if !reflect.DeepEqual(ids(got), []graph.FacilityID{1, 2}) {
		t.Fatalf("ids = %v, want [1 2] (incomplete vector must not dominate)", ids(got))
	}
	got = MergeSkylines(b, a)
	if !reflect.DeepEqual(ids(got), []graph.FacilityID{2, 1}) {
		t.Fatalf("ids = %v, want [2 1] (incomplete vector must not be dropped)", ids(got))
	}
}

func TestMergeSkylinesNilAndEmptyParts(t *testing.T) {
	a := &Result{Facilities: []Facility{fac(1, 0, 1, 1)}}
	got := MergeSkylines(nil, &Result{}, a, nil)
	if !reflect.DeepEqual(ids(got), []graph.FacilityID{1}) {
		t.Fatalf("ids = %v, want [1]", ids(got))
	}
	if got := MergeSkylines(); len(got.Facilities) != 0 {
		t.Fatalf("empty merge returned facilities: %v", got.Facilities)
	}
}

func TestMergeTopKIdenticalReplicasNoOp(t *testing.T) {
	mk := func() *Result {
		return &Result{
			Facilities: []Facility{fac(4, 1.5, 1, 2), fac(2, 2.0, 2, 2), fac(8, 3.5, 3, 3)},
			Stats:      Stats{Pops: 2},
		}
	}
	got := MergeTopK(3, mk(), mk())
	if !reflect.DeepEqual(got.Facilities, mk().Facilities) {
		t.Fatalf("merge of identical replicas changed facilities: %+v", got.Facilities)
	}
	if got.Stats.Pops != 4 {
		t.Fatalf("stats not summed: %+v", got.Stats)
	}
}

func TestMergeTopKSortsAndTruncates(t *testing.T) {
	a := &Result{Facilities: []Facility{fac(1, 2.0), fac(2, 5.0)}}
	b := &Result{Facilities: []Facility{fac(3, 1.0), fac(4, 3.0)}}
	got := MergeTopK(3, a, b)
	want := []graph.FacilityID{3, 1, 4}
	if !reflect.DeepEqual(ids(got), want) {
		t.Fatalf("ids = %v, want %v", ids(got), want)
	}
	// k <= 0 keeps everything.
	got = MergeTopK(0, a, b)
	if len(got.Facilities) != 4 {
		t.Fatalf("k=0 truncated: %v", ids(got))
	}
}

func TestMergeTopKTiesKeepFirstOccurrence(t *testing.T) {
	a := &Result{Facilities: []Facility{fac(7, 2.0)}}
	b := &Result{Facilities: []Facility{fac(3, 2.0)}}
	got := MergeTopK(2, a, b)
	if !reflect.DeepEqual(ids(got), []graph.FacilityID{7, 3}) {
		t.Fatalf("ids = %v, want [7 3] (stable sort on equal scores)", ids(got))
	}
}
