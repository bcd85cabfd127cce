package timedep_test

import (
	"fmt"
	"testing"

	"mcn/internal/testsupport/lattice"
	"mcn/internal/testsupport/testnet"
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
