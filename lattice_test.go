package mcn_test

import (
	"testing"

	"mcn/internal/testsupport/lattice"
)

// A top-k query whose weight vector is a positive multiple of a cached
// one's shares its result-cache entry and answers the same ranking with
// proportionally scaled scores: the differential lattice's cached wire row
// (internal/testsupport/lattice) asks every top-k again with its weights
// doubled and requires a hit scoring exactly twice the uncached answer.
func TestCachedEquivalenceScaledWeights(t *testing.T) {
	lattice.Sweep(t, 10, lattice.Generated, nil, lattice.Select{
		Rows: lattice.WireRowsOf("served cached"), Kinds: lattice.KindSet(lattice.TopK),
	})
}
