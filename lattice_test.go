package mcn_test

import (
	"testing"

	"mcn/internal/testsupport/lattice"
)

// A result cache is invisible to the executor: in the cached update-mix row
// every executor kind's answer, asked twice while updates invalidate
// entries, equals the reference row bit for bit with its work counters, and
// a quiet pass over a fresh cache misses at most once per request.
func TestCachedEquivalenceRandomized(t *testing.T) {
	rep := lattice.Sweep(t, 20, lattice.Generated, nil, lattice.Select{Rows: lattice.UpdateCachedRows,
		Kinds: lattice.KindSet(lattice.Skyline, lattice.TopK, lattice.Nearest, lattice.Within, lattice.MultiSkyline, lattice.MultiTopK)})
	if rep.Hits == 0 || rep.Invalidated == 0 {
		t.Errorf("%d cache hits, %d entries invalidated; a count of 0 checked nothing", rep.Hits, rep.Invalidated)
	}
}

// The same row's time kinds on the continuous shape, under profiles on one
// breakpoint set: an instant query and its repeat a little later inside the
// same elementary interval share one entry, and every cached answer must be
// one of a version inside its window.
func TestCachedEquivalenceTimeDependent(t *testing.T) {
	rep := lattice.Sweep(t, 20, lattice.Continuous, nil, lattice.Select{Rows: lattice.UpdateCachedRows,
		Kinds:    lattice.KindSet(lattice.Skyline, lattice.TopK, lattice.Nearest, lattice.Within, lattice.SkylinePeriod, lattice.TopKPeriod),
		Profiles: lattice.SharedAxisProfiles})
	if rep.Hits == 0 || rep.Invalidated == 0 {
		t.Errorf("%d cache hits, %d entries invalidated; a count of 0 checked nothing", rep.Hits, rep.Invalidated)
	}
}
