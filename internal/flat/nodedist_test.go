package flat

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
)

// expansionDistances is the reference NodeDistances must reproduce: a
// node-only expansion from loc under cost type i, run to exhaustion.
func expansionDistances(t *testing.T, s *Source, loc graph.Location, i int) []float64 {
	t.Helper()
	sc := expand.Acquire(s)
	defer sc.Release()
	x, err := expand.New(s, i, loc, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	x.SetFilter(func(graph.EdgeID) bool { return false }, func(graph.FacilityID) bool { return false })
	for {
		ev, _, _, err := x.Step()
		if err != nil {
			t.Fatal(err)
		}
		if ev == expand.EventExhausted {
			return x.Distances(nil)
		}
	}
}

// The pass is the expansion, bit for bit: over testnet's adversarial
// instances — zero-length edges and exact ties, or real-valued costs whose
// sums depend on their order; directed and undirected; components the
// query cannot reach; d = 1 to 5 — from the instance's query location, from
// both ends of its edge (T = 0 and T = 1), and from the edge of a facility,
// every node's distance under every cost type has the bits a node-only
// expansion's Distances reports, +Inf included. A reused dst gives the same.
func TestNodeDistancesMatchExpansion(t *testing.T) {
	for i := int64(0); i < 120; i++ {
		seed, shape := i/2, testnet.ShapeOf(i/2)
		shape.Continuous = i%2 == 1
		inst := testnet.Generate(seed, shape)
		g := inst.G
		s := Compile(g)
		locs := []graph.Location{inst.Loc, {Edge: inst.Loc.Edge, T: 0}, {Edge: inst.Loc.Edge, T: 1}}
		if g.NumFacilities() > 0 {
			locs = append(locs, graph.Location{Edge: g.Facility(0).Edge, T: 0.25})
		}
		var dst []float64
		for _, loc := range locs {
			for c := 0; c < g.D(); c++ {
				where := fmt.Sprintf("seed %d %+v: %v, location %+v, cost %d", seed, shape, inst, loc, c)
				want := expansionDistances(t, s, loc, c)
				got, err := s.NodeDistances(loc, c, dst, nil)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d distances, the expansion reports %d", where, len(got), len(want))
				}
				for v := range want {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("%s: node %d at %v, the expansion settles it at %v", where, v, got[v], want[v])
					}
				}
				dst = got
			}
		}
	}
}

// An interrupt error ends the pass and is returned: polled once before the
// query edge is read, then as nodes settle, so a pass over a few thousand
// nodes is stopped part way. An edge out of range is refused like an
// expansion refuses it, and so is a fraction T off its edge: where a seed
// key is negative or NaN (T = 1.5 and T = NaN; T = -0.5 when the network
// is undirected) with the expansion's error, and never with a panic. T =
// -0.5 on a directed network seeds only the edge's head, at a positive
// key, and gets the expansion's distances.
func TestNodeDistancesInterruptAndRange(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 4000, Facilities: 500, D: 2, Queries: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := Compile(inst.Graph)
	stop := errors.New("stop")
	for _, after := range []int{1, 2, 5} {
		polls := 0
		_, err := s.NodeDistances(inst.Queries[0], 1, nil, func() error {
			if polls++; polls == after {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) || polls != after {
			t.Errorf("interrupt failing on poll %d: err %v after %d polls", after, err, polls)
		}
	}
	if _, err := s.NodeDistances(graph.Location{Edge: graph.EdgeID(s.NumEdges())}, 0, nil, nil); err == nil {
		t.Error("an edge past the last was accepted")
	}

	for _, directed := range []bool{false, true} {
		g := testnet.Generate(3, testnet.Shape{D: 2, Directed: directed, Nodes: 300, Continuous: true}).G
		s := Compile(g)
		e := graph.EdgeID(0)
		for g.Edge(e).W[0] == 0 || g.Edge(e).W[1] == 0 {
			e++
		}
		for _, at := range []float64{-0.5, 1.5, math.NaN()} {
			loc := graph.Location{Edge: e, T: at}
			for c := 0; c < g.D(); c++ {
				where := fmt.Sprintf("directed %v, location %+v, cost %d", directed, loc, c)
				sc := expand.Acquire(s)
				_, want := expand.New(s, c, loc, sc, nil)
				sc.Release()
				got, err := s.NodeDistances(loc, c, nil, nil)
				if refused := !(directed && at < 0); (want != nil) != refused {
					t.Fatalf("%s: the expansion returns %v", where, want)
				}
				if want != nil {
					if err == nil || err.Error() != want.Error() {
						t.Errorf("%s: error %v, the expansion's is %v", where, err, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v, the expansion accepts it", where, err)
				}
				for v, d := range expansionDistances(t, s, loc, c) {
					if math.Float64bits(got[v]) != math.Float64bits(d) {
						t.Fatalf("%s: node %d at %v, the expansion settles it at %v", where, v, got[v], d)
					}
				}
			}
		}
	}
}
