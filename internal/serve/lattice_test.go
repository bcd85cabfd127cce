package serve_test

import (
	"testing"

	"mcn/internal/graph"
	"mcn/internal/testsupport/lattice"
)

// The served answers are the differential lattice's served rows
// (internal/testsupport/lattice), held to the oracle and to the in-process
// answer. These tests keep their names and run the slice that holds their
// assertions, on instances past those the lattice's own test checks:
// servedSlice the in-memory rows (plain and cached) and the disk row, each
// as a subtest.
func servedSlice(t *testing.T, kinds ...lattice.Kind) {
	for _, sub := range []struct {
		name string
		rows lattice.Rows
	}{
		{"memory", lattice.WireRowsOf("served", "served cached")},
		{"disk", lattice.WireRowsOf("served disk 1%")},
	} {
		t.Run(sub.name, func(t *testing.T) {
			sel := lattice.Select{Rows: sub.rows, Kinds: lattice.KindSet(kinds...)}
			lattice.Sweep(t, 10, lattice.Generated, nil, sel)
			lattice.Check(t, lattice.Large(false, 4), sel)
		})
	}
}

// Every query endpoint answers what the library does.
func TestEndpointsMatchLibrary(t *testing.T) {
	servedSlice(t, lattice.Skyline, lattice.TopK, lattice.Nearest, lattice.Within)
}

// The multi-source endpoints answer what the library does.
func TestMultiSourceEndpoints(t *testing.T) {
	servedSlice(t, lattice.MultiSkyline, lattice.MultiTopK)
}

// /topk?stream=1 delivers the facilities TopKSeq does, in its ascending
// score order, one NDJSON line each, then a done-line with their count.
func TestStreamTopKNDJSON(t *testing.T) { servedSlice(t, lattice.Drain) }

// The period endpoints reproduce the library's interval sweep exactly:
// interval bounds, facilities and work counters per interval.
func TestPeriodEndpoints(t *testing.T) {
	sel := lattice.Select{Rows: lattice.WireRowsOf("served", "served cached"), Kinds: lattice.KindSet(lattice.SkylinePeriod, lattice.TopKPeriod)}
	lattice.Sweep(t, 10, lattice.Generated, nil, sel)
	lattice.Check(t, lattice.Large(true, 4), sel)
}

// Within is the one query that reads the pruning index, and an in-memory
// network numbers its nodes in locality order, so an index left in the
// graph's numbering would prune the wrong nodes and silently drop answers.
// On networks whose locality order is not the identity, the served /within
// and the time-dependent WithinAt must answer as the oracle does, and must
// prune.
func TestWithinMatchesOracleInLocalityOrder(t *testing.T) {
	var served, timed int
	for _, directed := range []bool{false, true} {
		in := lattice.Large(directed, 5)
		identity := true
		for r, v := range graph.LocalityOrder(in.G) {
			identity = identity && v == graph.NodeID(r)
		}
		if identity {
			t.Fatalf("%v: the locality order is the identity; the check is vacuous", in)
		}
		within := lattice.KindSet(lattice.Within)
		served += lattice.Check(t, in, lattice.Select{Rows: lattice.ServedRows, Kinds: within}).Served
		timed += lattice.Check(t, in, lattice.Select{Rows: lattice.TimeRows, Kinds: within}).Own
	}
	if served == 0 || timed == 0 {
		t.Errorf("pruned %d nodes served and %d at an instant; a count of 0 checked nothing", served, timed)
	}
}

// A facility no location reaches scores +Inf, which JSON once refused: the
// multi-source top-k over two components answered 500 "internal encoding
// failure" in JSON, 200 in MCNB. The named instance it was found on.
func TestInfiniteScoreOverTheWire(t *testing.T) {
	for _, in := range lattice.Named() {
		if in.Name == "multi-source across components" {
			lattice.Check(t, in, lattice.Select{Rows: lattice.WireRows,
				Kinds: lattice.KindSet(lattice.MultiTopK, lattice.TopK, lattice.Drain)})
			return
		}
	}
	t.Fatal("no instance named multi-source across components")
}
