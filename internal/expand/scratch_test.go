package expand

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testnet"
)

// unsized hides everything but the six Source methods of what it wraps, as a
// caller's own wrapper would (the benchmark's tracing shim does): the id
// spaces are then undeclared and the state arrays grow on demand.
type unsized struct{ Source }

// sized declares a MemorySource's id spaces, as flat.Source and
// storage.Network do.
type sized struct{ *MemorySource }

func (s sized) NumNodes() int      { return s.Graph().NumNodes() }
func (s sized) NumEdges() int      { return s.Graph().NumEdges() }
func (s sized) NumFacilities() int { return s.Graph().NumFacilities() }

// connectedGraph builds a connected n-node single-cost network with
// facilities.
func connectedGraph(t *testing.T, rng *rand.Rand, n, facilities int) *graph.Graph {
	t.Helper()
	topo := gen.RandomConnected(n, n/2, rng)
	g, err := gen.Assemble(topo, gen.AssignCosts(topo, 1, gen.Independent, rng), gen.UniformFacilities(topo, facilities, rng), false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkAgainstOracle drains one expansion over src on sc and compares every
// facility cost with the brute-force oracle.
func checkAgainstOracle(t *testing.T, src Source, g *graph.Graph, sc *Scratch) {
	t.Helper()
	loc := graph.Location{Edge: 0, T: 0.5}
	x, err := New(src, 0, loc, sc)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, x)
	for p, want := range testnet.FacilityCosts(g, loc, 0) {
		c, found := got[graph.FacilityID(p)]
		if math.IsInf(want, 1) != !found || (found && math.Abs(c-want) > 1e-9*(1+want)) {
			t.Fatalf("%d-node graph: facility %d cost %g (found=%v), oracle %g", g.NumNodes(), p, c, found, want)
		}
	}
}

func TestScratchStateReuse(t *testing.T) {
	sc := acquire(t, unsized{})
	a := sc.state()
	b := sc.state()
	if a == b {
		t.Fatal("scratch handed out the same state twice without reset")
	}
	genA := a.gen
	sc.reset()
	if got := sc.state(); got != a {
		t.Fatal("reset did not recycle the first state")
	} else if got.gen == genA {
		t.Fatal("recycled state kept its old generation")
	}
}

// A scratch warmed on a small network must serve a far larger one, and the
// small one again afterwards — by doubling when the id spaces are undeclared,
// by re-fitting when they are declared.
func TestScratchGrowsAcrossNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	small := connectedGraph(t, rng, 50, 10)
	big := connectedGraph(t, rng, 5000, 400)
	for name, wrap := range map[string]func(*MemorySource) Source{
		"undeclared": func(m *MemorySource) Source { return unsized{m} },
		"declared":   func(m *MemorySource) Source { return sized{m} },
	} {
		t.Run(name, func(t *testing.T) {
			sc := new(Scratch)
			for _, g := range []*graph.Graph{small, big, small} {
				src := wrap(NewMemorySource(g))
				sc.reset()
				sc.bind(src)
				checkAgainstOracle(t, src, g, sc)
			}
			if n := len(sc.states[0].nodes.m); name == "declared" && n != small.NumNodes() {
				t.Errorf("declared id space: %d node marks addressable, want exactly %d", n, small.NumNodes())
			}
		})
	}
}

// TestGenerationWrapClears forces the uint32 generation counter to wrap and
// checks the stamps are really cleared: a stale stamp equal to a post-wrap
// generation must not read as "seen". That includes stamps in entries the
// search grew into and a re-fit to a smaller network then left beyond the
// current length — a later, larger network re-opens them.
func TestGenerationWrapClears(t *testing.T) {
	sc := new(Scratch)
	sc.nodes, sc.facs = unbounded, unbounded
	ds := sc.state() // generation 1
	for _, a := range []*marks{&ds.nodes, &ds.facs} {
		for _, id := range []uint32{1, 90} { // 90 grows the array
			if err := ds.push(a, id, 1); err != nil {
				t.Fatal(err)
			}
			a.m[id].done = ds.gen
		}
	}

	sc.reset()
	sc.nodes, sc.facs = 3, 3
	ds.gen = ^uint32(0)
	if got := sc.state(); got != ds || len(ds.nodes.m) != 3 || ds.gen != 1 {
		t.Fatalf("re-fit at the wrap: %d node marks (want 3), gen %d (want 1)", len(ds.nodes.m), ds.gen)
	}
	for _, a := range []*marks{&ds.nodes, &ds.facs} {
		for i, m := range a.m[:cap(a.m)] {
			if m.seen != 0 || m.done != 0 {
				t.Fatalf("%v %d kept stamps (%d, %d) across the wrap", a.kind, i, m.seen, m.done)
			}
		}
	}
}

// TestEdgeSet exercises the epoch-stamped edge set: membership, O(1)
// clearing via generation bump, growth on demand, the declared-id-space
// bound and stamp wrap-around.
func TestEdgeSet(t *testing.T) {
	sc := new(Scratch)
	sc.edges = 6
	es := sc.EdgeSet()
	for _, e := range []graph.EdgeID{0, 5} {
		if err := es.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if !es.Has(0) || !es.Has(5) || es.Has(3) || es.Has(6) {
		t.Fatal("membership wrong after Add")
	}
	if err := es.Add(6); err == nil || !strings.Contains(err.Error(), "edge 6 out of range") {
		t.Fatalf("Add beyond the declared id space: err = %v", err)
	}
	// Re-acquiring the set clears it without touching the array.
	es2 := sc.EdgeSet()
	if es2 != es {
		t.Fatal("EdgeSet reallocated on reuse")
	}
	if es2.Has(0) || es2.Has(5) {
		t.Fatal("stale membership survived EdgeSet reacquisition")
	}

	// Undeclared id space: grows to whatever id is added.
	sc.edges = unbounded
	es = sc.EdgeSet()
	if err := es.Add(1000); err != nil || !es.Has(1000) || es.Has(999) || es.Has(5000) {
		t.Fatalf("grown set: err=%v Has(1000)=%v", err, es.Has(1000))
	}

	// Wrap-around: a stale stamp equal to the post-wrap generation must not
	// read as present.
	es.gen = ^uint32(0)
	if err := es.Add(2); err != nil {
		t.Fatal(err)
	}
	es.reset() // wraps to 1 and clears
	if es.gen != 1 {
		t.Fatalf("post-wrap gen = %d, want 1", es.gen)
	}
	if es.Has(2) {
		t.Fatal("stale membership reads as present after wrap")
	}
}

// lyingSource declares id spaces and then names ids one past them — a
// damaged adjacency record (neighbour = NumNodes, or edge = NumEdges) or
// facility record (id = NumFacilities).
type lyingSource struct {
	sized
	badNeighbor, badEdge, badFacility bool
}

func (s lyingSource) Adjacency(v graph.NodeID) ([]graph.AdjEntry, error) {
	entries, err := s.sized.Adjacency(v)
	if s.badNeighbor && len(entries) > 0 {
		entries[0].Neighbor = graph.NodeID(s.NumNodes())
	}
	if s.badEdge && len(entries) > 0 {
		entries[0].Edge = graph.EdgeID(s.NumEdges())
	}
	return entries, err
}

func (s lyingSource) Facilities(ref uint64, count int) ([]graph.FacEntry, error) {
	facs, err := s.sized.Facilities(ref, count)
	if s.badFacility && len(facs) > 0 {
		facs[0].ID = graph.FacilityID(s.NumFacilities())
	}
	return facs, err
}

// A record naming an id outside the id space its source declared must fail
// the search with an error: no index panic, and no attempt to grow the
// state arrays to reach it.
func TestOutOfRangeRecordFailsQuery(t *testing.T) {
	g := connectedGraph(t, rand.New(rand.NewSource(701)), 200, 60)
	for name, src := range map[string]lyingSource{
		"node":     {sized: sized{NewMemorySource(g)}, badNeighbor: true},
		"edge":     {sized: sized{NewMemorySource(g)}, badEdge: true},
		"facility": {sized: sized{NewMemorySource(g)}, badFacility: true},
	} {
		t.Run(name, func(t *testing.T) {
			sc := acquire(t, src)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			x, err := New(src, 0, graph.Location{Edge: 0, T: 0.5}, sc)
			for err == nil {
				var ok bool
				if _, _, ok, err = x.Next(); !ok {
					break
				}
			}
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "expand: "+name) || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("err = %v, want expand: %s N out of range", err, name)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
				t.Errorf("allocated %d bytes on the way to the error, want < 8 MiB", grew)
			}
		})
	}
}
