package mcn

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
)

// Exercise the facade entry points not covered by the focused tests, against
// the same small deterministic city.
func TestFacadeBreadth(t *testing.T) {
	g := cityGraph(t)
	net := FromGraph(g)
	ctx := context.Background()
	loc, err := LocationAtNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("Directed and Graph accessors", func(t *testing.T) {
		if net.Directed() {
			t.Error("city graph should be undirected")
		}
		if net.g != g {
			t.Error("the network should wrap the graph it was built from")
		}
	})

	t.Run("WeightedMax", func(t *testing.T) {
		agg := WeightedMax(1, 1)
		res, err := net.TopK(ctx, loc, agg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Facilities) != 1 {
			t.Fatalf("top-1 size %d", len(res.Facilities))
		}
		f := res.Facilities[0]
		if want := math.Max(f.Costs[0], f.Costs[1]); math.Abs(f.Score-want) > 1e-9 {
			t.Errorf("max score = %g, want %g", f.Score, want)
		}
	})

	t.Run("Within", func(t *testing.T) {
		res, err := net.Within(ctx, loc, Of(100, 100), WithEngine(CEA))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Facilities) != g.NumFacilities() {
			t.Errorf("generous budget admits %d of %d facilities", len(res.Facilities), g.NumFacilities())
		}
	})

	t.Run("BaselineTopK", func(t *testing.T) {
		agg := WeightedSum(0.5, 0.5)
		fast, err := net.TopK(ctx, loc, agg, 2)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := net.BaselineTopK(ctx, loc, agg, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fast.Facilities {
			if math.Abs(fast.Facilities[i].Score-slow.Facilities[i].Score) > 1e-9 {
				t.Errorf("baseline top-k disagrees at %d", i)
			}
		}
	})

	t.Run("MultiSource", func(t *testing.T) {
		locB, err := LocationAtNode(g, 5)
		if err != nil {
			t.Fatal(err)
		}
		sky, err := net.MultiSourceSkyline(ctx, 0, []Location{loc, locB}, WithEngine(CEA))
		if err != nil {
			t.Fatal(err)
		}
		if len(sky.Facilities) == 0 {
			t.Error("multi-source skyline empty")
		}
		top, err := net.MultiSourceTopK(ctx, 0, []Location{loc, locB}, WeightedSum(1, 1), 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(top.Facilities) != 2 {
			t.Errorf("multi-source top-2 size %d", len(top.Facilities))
		}
	})

	t.Run("TextRoundtrip", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		a, err := FromGraph(g2).Skyline(ctx, loc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := net.Skyline(ctx, loc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(idsSorted(a), idsSorted(b)) {
			t.Error("skyline differs after text roundtrip")
		}
	})

	t.Run("TimeDependent", func(t *testing.T) {
		tn := TimeDependent(g)
		if err := tn.SetProfile(0, TimeProfile{
			Times: []float64{5},
			Mult:  []Costs{Of(2, 2)},
		}); err != nil {
			t.Fatal(err)
		}
		intervals, err := tn.SkylineOverPeriod(ctx, loc, 0, 10, QueryOptions(WithEngine(CEA)))
		if err != nil {
			t.Fatal(err)
		}
		if len(intervals) == 0 {
			t.Fatal("no intervals")
		}
		if intervals[0].From != 0 || intervals[len(intervals)-1].To != 10 {
			t.Error("intervals do not tile the period")
		}
		// Instant queries must agree with the interval covering the instant.
		for _, at := range []float64{0, 5, 9.5} {
			res, err := tn.SkylineAt(ctx, loc, at, QueryOptions(WithEngine(CEA)))
			if err != nil {
				t.Fatal(err)
			}
			for _, iv := range intervals {
				if at < iv.From || at >= iv.To {
					continue
				}
				if !reflect.DeepEqual(idsSorted(res), idsSorted(iv.Result)) {
					t.Errorf("SkylineAt(%g) = %v, interval result %v", at, idsSorted(res), idsSorted(iv.Result))
				}
			}
		}
		if _, err := tn.TopKAt(ctx, loc, WeightedSum(1, 1), 2, 6, QueryOptions()); err != nil {
			t.Errorf("TopKAt: %v", err)
		}
		if _, err := tn.NearestAt(ctx, loc, 0, 2, 6, QueryOptions()); err != nil {
			t.Errorf("NearestAt: %v", err)
		}
		if _, err := tn.WithinAt(ctx, loc, Of(100, 100), 6, QueryOptions()); err != nil {
			t.Errorf("WithinAt: %v", err)
		}
	})

	t.Run("InMemoryIOStats", func(t *testing.T) {
		if _, ok := net.IOStats(); ok {
			t.Error("in-memory network reported I/O stats")
		}
		net.ResetIOStats() // must be a safe no-op
		if err := net.Close(); err != nil {
			t.Errorf("Close on in-memory network: %v", err)
		}
	})
}

func TestFacadeDatabaseErrors(t *testing.T) {
	if _, err := OpenDatabaseOptions("/nonexistent/path.mcn", 0.1, PoolOptions{}); err == nil {
		t.Error("opening a missing database succeeded")
	}
	g := cityGraph(t)
	if err := CreateDatabase(g, "/nonexistent/dir/x.mcn"); err == nil {
		t.Error("creating a database in a missing directory succeeded")
	}
}
