package core_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/testsupport/lattice"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// The randomized answer suites of this package — each a sweep of its own
// instance generator through one or two modes against its own oracle — are
// slices of the differential lattice now (internal/testsupport/lattice):
// held to the brute-force oracle and to the reference row bit for bit.
// Each test below keeps its name and runs the slice that holds its
// assertions — the rows, the kinds and the instances its name is about —
// on generated instances past those TestLattice checks.

type slice struct {
	rows  lattice.Rows // zero: every source row
	kinds []lattice.Kind
	// continuous draws from the generator's continuous shape.
	continuous bool
	// keep, when set, skips instances without the property; edit, when
	// set, changes each instance's query.
	keep func(*testnet.Instance) bool
	edit func(*testnet.Instance)
}

func (s slice) check(t *testing.T) {
	t.Helper()
	if s.rows == (lattice.Rows{}) {
		s.rows = lattice.EverySource
	}
	build := lattice.Generated
	if s.continuous {
		build = lattice.Continuous
	}
	lattice.Sweep(t, 10, func(seed int64) *testnet.Instance {
		in := build(seed)
		if s.edit != nil {
			s.edit(in)
		}
		return in
	}, s.keep, lattice.Select{Rows: s.rows, Kinds: lattice.KindSet(s.kinds...)})
}

var (
	skyline     = []lattice.Kind{lattice.Skyline}
	progressive = []lattice.Kind{lattice.Skyline, lattice.SkylineSeq}
	topK        = []lattice.Kind{lattice.TopK}
	disk        = lattice.SourceRows("disk 1%", "disk 100%", "disk/wrapped")
)

// tied: two facilities have the same cost vector, so the skyline keeps
// one of them by its tie rule.
func tied(in *testnet.Instance) bool {
	costs := testnet.AllCosts(in.G, in.Loc)
	for i := range costs {
		for j := range i {
			if costs[i].Equal(costs[j]) && !math.IsInf(costs[i][0], 1) {
				return true
			}
		}
	}
	return false
}

// zeroEdge: some edge costs nothing under every cost type.
func zeroEdge(in *testnet.Instance) bool {
	for e := 0; e < in.G.NumEdges(); e++ {
		if !slices.ContainsFunc(in.G.Edge(graph.EdgeID(e)).W, func(c float64) bool { return c != 0 }) {
			return true
		}
	}
	return false
}

// atNode: some facility lies at an end of its edge, on a node.
func atNode(in *testnet.Instance) bool {
	for p := 0; p < in.G.NumFacilities(); p++ {
		if t := in.G.Facility(graph.FacilityID(p)).T; t == 0 || t == 1 {
			return true
		}
	}
	return false
}

func TestSkylineTieRobust(t *testing.T)     { slice{kinds: progressive, keep: tied}.check(t) }
func TestSkylineZeroCostEdges(t *testing.T) { slice{kinds: skyline, keep: zeroEdge}.check(t) }
func TestFacilitiesAtNodes(t *testing.T)    { slice{kinds: skyline, keep: atNode}.check(t) }
func TestSkylineQuickProperty(t *testing.T) { slice{kinds: skyline, continuous: true}.check(t) }
func TestSkylineProgressive(t *testing.T) {
	slice{rows: lattice.EverySource.Without(lattice.CEARows), kinds: progressive}.check(t)
}
func TestCEASameOrderAsLSA(t *testing.T) { slice{rows: lattice.CEARows, kinds: progressive}.check(t) }
func TestSkylineOnDisk(t *testing.T)     { slice{rows: disk, kinds: skyline}.check(t) }
func TestTopKMatchesOracle(t *testing.T) { slice{kinds: topK}.check(t) }

// k beyond |P|: the whole ranking, in score order.
func TestTopKResultsSortedByScore(t *testing.T) {
	slice{kinds: topK, edit: func(in *testnet.Instance) { in.K = in.G.NumFacilities() + 2 }}.check(t)
}

func TestTopKMaxAggregate(t *testing.T) {
	slice{kinds: topK, edit: func(in *testnet.Instance) {
		coef := make([]float64, in.G.D())
		for i := range coef {
			coef[i] = float64(1 + i%3)
		}
		in.Agg = vec.NewMax(coef...)
	}}.check(t)
}

func TestTopOneQuickProperty(t *testing.T) {
	slice{kinds: topK, continuous: true, edit: func(in *testnet.Instance) { in.K = 1 }}.check(t)
}

func TestTopKOnDisk(t *testing.T) { slice{rows: disk, kinds: topK}.check(t) }
func TestIncrementalMatchesTopK(t *testing.T) {
	slice{kinds: []lattice.Kind{lattice.TopK, lattice.Drain}}.check(t)
}
func TestIncrementalFullDrain(t *testing.T) {
	slice{kinds: []lattice.Kind{lattice.Drain}, continuous: true}.check(t)
}
func TestWithinMatchesOracle(t *testing.T) { slice{kinds: []lattice.Kind{lattice.Within}}.check(t) }
func TestNaiveSkylineMatchesOracle(t *testing.T) {
	slice{kinds: []lattice.Kind{lattice.NaiveSkyline}}.check(t)
}
func TestNaiveTopKMatchesOracle(t *testing.T) {
	slice{kinds: []lattice.Kind{lattice.NaiveTopK}}.check(t)
}

func TestMultiSourceSkylineMatchesOracle(t *testing.T) {
	slice{kinds: []lattice.Kind{lattice.MultiSkyline}}.check(t)
}
func TestMultiSourceTopKMatchesOracle(t *testing.T) {
	slice{kinds: []lattice.Kind{lattice.MultiTopK}}.check(t)
}

func TestPrunedTopKMatchesNaive(t *testing.T) {
	slice{rows: lattice.BoundsRows, kinds: []lattice.Kind{lattice.TopK, lattice.NaiveTopK}}.check(t)
}

// The rows without enhancements answer as the reference row without them
// does, and both as the oracle.
func TestSkylineNoEnhancementsSameAnswer(t *testing.T) {
	slice{rows: lattice.NoEnhancementRows, kinds: skyline}.check(t)
}
func TestTopKNoEnhancementsSameScores(t *testing.T) {
	slice{rows: lattice.NoEnhancementRows, kinds: topK}.check(t)
}

// Every source, engine, enhancement and bounds row on the skyline.
func TestSkylineInvariantAcrossConfigurations(t *testing.T) { slice{kinds: skyline}.check(t) }

func TestSkylineMatchesOracleContinuous(t *testing.T) {
	for _, directed := range []bool{false, true} {
		lattice.Check(t, lattice.Large(directed, 2), lattice.Select{Kinds: lattice.KindSet(progressive...)})
	}
}

// d = 8, beyond the paper's 2–5.
func TestSkylineHighDimensional(t *testing.T) {
	lattice.Sweep(t, 10, func(seed int64) *testnet.Instance {
		return testnet.Generate(seed, testnet.Shape{D: 8, Directed: seed%2 == 1})
	}, nil, lattice.Select{Kinds: lattice.KindSet(lattice.Skyline)})
}

// Every kind over the large shape, with each source's own pruning index
// attached: results and work identical to the unpruned runs, except that
// within may only expand fewer nodes.
func TestPrunedEquivalenceRandomized(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("directed=%v/seed=%d", directed, seed), func(t *testing.T) {
				if lattice.Check(t, lattice.Large(directed, seed), lattice.Select{Rows: lattice.BoundsRows}).Bounds == 0 {
					t.Error("pruning never fired; the bounds rows compared nothing")
				}
			})
		}
	}
}

// The committed corpora of the three query fuzz targets replay here,
// decoded by lattice.Legacy into the networks and queries they always
// built; FuzzLattice is the target a fuzzing session runs.

func FuzzSkylineInvariants(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(4), uint8(4), uint8(2), uint8(0), true)
	f.Add(int64(7), uint8(20), uint8(0), uint8(8), uint8(3), uint8(2), false)
	f.Add(int64(42), uint8(3), uint8(9), uint8(1), uint8(4), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, nodes, extra, facs, d, locBits uint8, directed bool) {
		in := lattice.Legacy(seed, nodes, extra, facs, d, locBits, directed)
		lattice.Check(t, in, lattice.Select{Kinds: lattice.KindSet(lattice.Skyline, lattice.SkylineSeq, lattice.NaiveSkyline)})
	})
}

func FuzzTopKInvariants(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(4), uint8(4), uint8(2), uint8(0), true, uint8(3), uint8(9))
	f.Add(int64(7), uint8(20), uint8(0), uint8(8), uint8(3), uint8(2), false, uint8(1), uint8(27))
	f.Add(int64(42), uint8(3), uint8(9), uint8(1), uint8(4), uint8(5), true, uint8(6), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nodes, extra, facs, d, locBits uint8, directed bool, kBits, aggBits uint8) {
		in := lattice.WithTopK(lattice.Legacy(seed, nodes, extra, facs, d, locBits, directed), kBits, aggBits)
		lattice.Check(t, in, lattice.Select{Kinds: lattice.KindSet(lattice.TopK, lattice.NaiveTopK, lattice.Drain)})
	})
}

func FuzzWithinInvariants(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(4), uint8(4), uint8(2), uint8(0), true, uint8(7))
	f.Add(int64(7), uint8(20), uint8(0), uint8(8), uint8(3), uint8(2), false, uint8(12))
	f.Add(int64(42), uint8(3), uint8(9), uint8(1), uint8(4), uint8(5), true, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nodes, extra, facs, d, locBits uint8, directed bool, budBits uint8) {
		in := lattice.WithBudget(lattice.Legacy(seed, nodes, extra, facs, d, locBits, directed), budBits)
		lattice.Check(t, in, lattice.Select{Kinds: lattice.KindSet(lattice.Within)})
	})
}

// The finalize paths over lattice.DirectedFork: its second multi-source
// location cannot reach facility 0, so that expansion ends without popping
// it. Beyond the lattice's checks: without the Sec. IV-A enhancements the
// run ends through finalize, which must complete the unreached component
// to +Inf (with them, facility 0 is emitted by the first-NN shortcut and
// may keep an unknown component).
func TestMultiSourceSkylineFinalize(t *testing.T) {
	in := lattice.DirectedFork()
	lattice.Check(t, in, lattice.Select{Kinds: lattice.KindSet(lattice.MultiSkyline)})
	res, err := core.MultiSourceSkyline(expand.NewMemorySource(in.G), 0, in.Locs, core.Options{NoEnhancements: true})
	if err != nil {
		t.Fatal(err)
	}
	sawInf := false
	for _, f := range res.Facilities {
		for _, c := range f.Costs {
			sawInf = sawInf || math.IsInf(c, 1)
		}
	}
	if len(res.Facilities) != 2 || !sawInf {
		t.Errorf("%+v: want both facilities, one with a +Inf component", res.Facilities)
	}
}

// Top-k finalize: exhaustion with fewer than k pins must still rank every
// reachable facility, the +Inf-scored one last.
func TestMultiSourceTopKFinalize(t *testing.T) {
	in := lattice.DirectedFork()
	lattice.Check(t, in, lattice.Select{Kinds: lattice.KindSet(lattice.MultiTopK)})
	res, err := core.MultiSourceTopK(expand.NewMemorySource(in.G), 0, in.Locs, vec.NewWeighted(1, 1), 5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 2 || math.IsInf(res.Facilities[0].Score, 1) || !math.IsInf(res.Facilities[1].Score, 1) {
		t.Errorf("%+v: want two facilities, the second alone scored +Inf", res.Facilities)
	}
}

// Plain top-k with k beyond the facility count exercises the growing-stage
// exhaustion finalize.
func TestTopKExhaustsBelowK(t *testing.T) {
	lattice.Check(t, lattice.DirectedFork(), lattice.Select{Kinds: lattice.KindSet(lattice.TopK)})
}
