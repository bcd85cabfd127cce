package dynamic_test

import (
	"testing"

	"mcn/internal/testsupport/lattice"
)

// The rebuild comparisons of this package are the maintainer rows of the
// differential lattice (internal/testsupport/lattice): a maintainer over
// each source driven through a seeded insert/delete script — its first
// insert on an edge the query location cannot reach, a third of the others
// on the query edge — whose entries, skyline and top-k must equal the
// oracle on the graph rebuilt with the live facilities after every step.

func TestMaintainerMatchesRecompute(t *testing.T) {
	lattice.Sweep(t, 80, lattice.Generated, nil, lattice.Select{Rows: lattice.MaintainerRows})
}

// The same script over the generator's continuous shape: costs and
// fractions without the exact ties of the integer instances above.
func TestInsertMatchesOracle(t *testing.T) {
	lattice.Sweep(t, 40, lattice.Continuous, nil, lattice.Select{Rows: lattice.MaintainerRows})
}
