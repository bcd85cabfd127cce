package timedep_test

import (
	"context"
	"fmt"
	"testing"

	"mcn/internal/core"
	"mcn/internal/graph"
	"mcn/internal/testsupport/lattice"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/timedep"
	"mcn/internal/vec"
)

// Queries at an instant are the time rows of the differential lattice
// (internal/testsupport/lattice): before the first breakpoint, exactly on
// every breakpoint and at a random instant, then again after an edit that
// moves the time axis, each answer equals the oracle on the snapshot and
// the Snapshot + MemorySource reference bit for bit, work counters
// included; within prunes against the network's own index, and under one
// shared index does the same work as the reference. On the large shape
// both must prune, or their comparisons compared nothing.
func TestOverlayEquivalenceInstant(t *testing.T) {
	for d, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("directed=%v/seed=%d", directed, seed), func(t *testing.T) {
				sel := lattice.Select{Rows: lattice.TimeRows}
				pruned := lattice.Check(t, lattice.Large(directed, seed), sel)
				if pruned.Own == 0 {
					t.Error("pruning never fired; the network's index is not being attached")
				}
				if pruned.Shared == 0 {
					t.Error("the shared explicit index never pruned; its Stats comparison is vacuous")
				}
				lattice.Sweep(t, 20, func(s int64) *testnet.Instance {
					return lattice.Generated(40*(seed*2+int64(d)) + s)
				}, nil, sel)
			})
		}
	}
}

// Period sweeps are the time rows' period kinds: intervals that tile the
// period at instants of the time axis, each a maximal stretch of one
// preferred set, which at every instant of the axis it covers is the
// snapshot's answer, and where it starts that answer bit for bit with its
// work counters, on continuous costs and on integer ones, where facilities
// tie, under each lattice.Profiles shape.
func TestOverPeriodMatchesSnapshots(t *testing.T) {
	sel := lattice.Select{Rows: lattice.TimeRows, Kinds: lattice.KindSet(lattice.SkylinePeriod, lattice.TopKPeriod)}
	lattice.Sweep(t, 10, lattice.Continuous, nil, sel)
	for _, sel.Profiles = range []lattice.Profiles{lattice.RandomProfiles, lattice.RepeatingProfiles, lattice.SharedAxisProfiles} {
		lattice.Sweep(t, 40, lattice.Generated, nil, sel)
	}
}

// Sweeps over the shapes a read-set skip could get wrong: the time rows'
// period kinds on the large shape from each of its locations, over the
// whole period and a part starting and ending inside elementary intervals,
// under each lattice.Profiles shape; and a query edge only EdgeInfo reads.
func TestOverlayEquivalenceOverPeriod(t *testing.T) {
	shapes := []struct {
		name     string
		profiles lattice.Profiles
	}{{"random", lattice.RandomProfiles}, {"adversarial", lattice.RepeatingProfiles}, {"shared-axis", lattice.SharedAxisProfiles}}
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("directed=%v/seed=%d", directed, seed), func(t *testing.T) {
				in := lattice.Large(directed, seed)
				for _, shape := range shapes {
					t.Run(shape.name, func(t *testing.T) {
						for _, loc := range in.Locs { // the sweep from each location
							at := *in
							at.Loc = loc
							lattice.Check(t, &at, lattice.Select{Rows: lattice.TimeRows,
								Kinds: lattice.KindSet(lattice.SkylinePeriod, lattice.TopKPeriod), Profiles: shape.profiles})
						}
					})
				}
			})
		}
	}
	t.Run("query edge read by EdgeInfo alone", func(t *testing.T) {
		// A directed fork whose query edge 0→1 only expand.New's EdgeInfo
		// reads: its cost offsets every facility equally, yet under the max
		// aggregate reorders them, C = (2, 2) before t = 10, B = (5, 3) after.
		b := graph.NewBuilder(2, true)
		testnet.AddNodes(b, 4)
		q := b.AddEdge(0, 1, vec.Of(1, 1))
		b.AddFacility(b.AddEdge(1, 2, vec.Of(0, 2)), 1) // B
		b.AddFacility(b.AddEdge(1, 3, vec.Of(1, 1)), 1) // C
		n := timedep.New(testnet.MustBuild(b))
		if err := n.SetProfile(q, timedep.Profile{Times: []float64{10}, Mult: []vec.Costs{vec.Of(5, 1)}}); err != nil {
			t.Fatal(err)
		}
		got, err := n.TopKOverPeriod(context.Background(), graph.Location{Edge: q}, vec.NewMax(1, 1), 1, 0, 20, core.Options{})
		if err != nil || len(got) != 2 || got[0].To != 10 || len(got[0].Result.Facilities) != 1 || len(got[1].Result.Facilities) != 1 ||
			got[0].Result.Facilities[0].ID != 1 || got[1].Result.Facilities[0].ID != 0 {
			t.Fatalf("sweep %+v (%v), want top-1 C (facility 1) over [0, 10), B (facility 0) over [10, 20)", got, err)
		}
	})
}

// Profile edits race queries in the lattice's update-mix rows, with the
// result cache off and on; every answer must be the oracle's for a version
// inside the read's window. Windows narrower than every version, cache hits
// and invalidated entries must occur, or the checks compared nothing.
func TestSetProfileRacesQueries(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			rows := lattice.UpdateRows.Without(lattice.UpdateCachedRows)
			if cached {
				rows = lattice.UpdateCachedRows
			}
			rep := lattice.Sweep(t, 20, lattice.Generated, nil, lattice.Select{Rows: rows})
			if rep.Narrow == 0 || cached && (rep.Hits == 0 || rep.Invalidated == 0) {
				t.Errorf("%d narrow windows, %d cache hits, %d entries invalidated; a count of 0 checked nothing", rep.Narrow, rep.Hits, rep.Invalidated)
			}
		})
	}
}
