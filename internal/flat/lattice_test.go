package flat_test

import (
	"fmt"
	"testing"

	"mcn/internal/graph"
	"mcn/internal/testsupport/lattice"
	"mcn/internal/testsupport/testnet"
)

// The equivalence suites of this package are slices of the differential
// lattice now (internal/testsupport/lattice), whose source rows include
// flat, flat over a permuted numbering and flat behind a six-method
// wrapper, next to the disk store and the reference MemorySource. Each test
// keeps its name and runs the slice that holds its assertions: every query
// kind, answers and work counters bit-identical to the reference row.

func TestFlatEquivalence(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("directed=%v/seed=%d", directed, seed), func(t *testing.T) {
				lattice.Check(t, lattice.Large(directed, seed), lattice.Select{Rows: lattice.SourceRows("flat", "flat/wrapped", "disk 1%", "disk/wrapped")})
			})
		}
	}
}

// Facilities at identical positions on one edge, and parallel edges.
func TestFlatEquivalenceTieEdges(t *testing.T) {
	lattice.Sweep(t, 20, lattice.Generated, coincident, lattice.Select{Rows: lattice.SourceRows("flat", "flat/permuted", "flat/wrapped")})
}

// coincident reports whether two facilities of in share a position, or two
// edges their ends.
func coincident(in *testnet.Instance) bool {
	g := in.G
	facs := map[graph.Facility]bool{}
	for p := 0; p < g.NumFacilities(); p++ {
		f := g.Facility(graph.FacilityID(p))
		if facs[f] {
			return true
		}
		facs[f] = true
	}
	ends := map[[2]graph.NodeID]bool{}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		key := [2]graph.NodeID{min(ed.U, ed.V), max(ed.U, ed.V)}
		if ends[key] {
			return true
		}
		ends[key] = true
	}
	return false
}

// How a source numbers its nodes shows in no answer and no work counter:
// the permuted and locality-ordered rows against the reference.
func TestNumberingDoesNotChangeResults(t *testing.T) {
	lattice.Sweep(t, 40, lattice.Generated, nil, lattice.Select{Rows: lattice.SourceRows("flat", "flat/permuted", "disk 1%", "disk 100%")})
}
