package expand

import (
	"math"
	"math/rand"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/storage"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// randomGraph builds a random connected multi-cost network with facilities.
func randomGraph(t *testing.T, rng *rand.Rand, d int, directed bool) *graph.Graph {
	t.Helper()
	n := 2 + rng.Intn(40)
	topo := gen.RandomConnected(n, rng.Intn(2*n), rng)
	var costs []vec.Costs
	if rng.Intn(2) == 0 {
		costs = gen.RandomIntegerCosts(topo, d, 4, rng) // tie stress
	} else {
		costs = gen.AssignCosts(topo, d, gen.Distribution(rng.Intn(3)), rng)
	}
	nf := 1 + rng.Intn(25)
	pls := gen.UniformFacilities(topo, nf, rng)
	g, err := gen.Assemble(topo, costs, pls, directed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomLocation(rng *rand.Rand, g *graph.Graph) graph.Location {
	return graph.Location{Edge: graph.EdgeID(rng.Intn(g.NumEdges())), T: rng.Float64()}
}

// drain pops every facility from the expansion, asserting non-decreasing
// cost order and no duplicates.
// acquire returns a scratch for src that goes back to the pool when the
// test ends.
func acquire(t testing.TB, src Source) *Scratch {
	sc := Acquire(src)
	t.Cleanup(sc.Release)
	return sc
}

// newOn starts an expansion on a scratch of its own (see acquire).
func newOn(t testing.TB, src Source, costIdx int, loc graph.Location) (*Expansion, error) {
	return New(src, costIdx, loc, acquire(t, src))
}

func drain(t *testing.T, x *Expansion) map[graph.FacilityID]float64 {
	t.Helper()
	got := make(map[graph.FacilityID]float64)
	prev := math.Inf(-1)
	for {
		p, c, ok, err := x.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return got
		}
		if c < prev-1e-12 {
			t.Fatalf("facility %d popped at cost %g after %g (order violation)", p, c, prev)
		}
		prev = c
		if _, dup := got[p]; dup {
			t.Fatalf("facility %d reported twice", p)
		}
		got[p] = c
	}
}

func TestExpansionPathGraph(t *testing.T) {
	// 0 --(e0,w=2)-- 1 --(e1,w=4)-- 2, facilities at e0:0.5 and e1:0.25,
	// query at e0:0.25.
	b := graph.NewBuilder(1, false)
	b.AddNodes(3)
	e0 := b.AddEdge(0, 1, vec.Of(2))
	e1 := b.AddEdge(1, 2, vec.Of(4))
	f0 := b.AddFacility(e0, 0.5)
	f1 := b.AddFacility(e1, 0.25)
	g := b.MustBuild()

	src := NewMemorySource(g)
	x, err := newOn(t, src, 0, graph.Location{Edge: e0, T: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	p, c, ok, err := x.Next()
	if err != nil || !ok {
		t.Fatalf("first NN: %v %v", ok, err)
	}
	if p != f0 || math.Abs(c-0.5) > 1e-12 {
		t.Errorf("first NN = %d at %g, want %d at 0.5", p, c, f0)
	}
	p, c, ok, err = x.Next()
	if err != nil || !ok {
		t.Fatalf("second NN: %v %v", ok, err)
	}
	// To f1: 0.75·2 to node 1, then 0.25·4 = 1.5 + 1 = 2.5.
	if p != f1 || math.Abs(c-2.5) > 1e-12 {
		t.Errorf("second NN = %d at %g, want %d at 2.5", p, c, f1)
	}
	if _, _, ok, _ = x.Next(); ok {
		t.Error("expansion should be exhausted")
	}
}

func TestExpansionSameEdgeDirect(t *testing.T) {
	// Query and facility on the same edge; the direct walk must beat the
	// route via the end-nodes.
	b := graph.NewBuilder(1, false)
	b.AddNodes(2)
	e := b.AddEdge(0, 1, vec.Of(10))
	f := b.AddFacility(e, 0.6)
	g := b.MustBuild()
	x, err := newOn(t, NewMemorySource(g), 0, graph.Location{Edge: e, T: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	p, c, ok, err := x.Next()
	if err != nil || !ok || p != f {
		t.Fatalf("NN = %d %v %v", p, ok, err)
	}
	if math.Abs(c-2.0) > 1e-12 {
		t.Errorf("cost = %g, want 2.0 (direct 0.2·10)", c)
	}
}

func TestExpansionDirectedBehindQuery(t *testing.T) {
	// One-way edge: facility behind the query is unreachable without a
	// cycle; with a cycle it is reachable the long way round.
	b := graph.NewBuilder(1, true)
	b.AddNodes(2)
	e0 := b.AddEdge(0, 1, vec.Of(1))
	f := b.AddFacility(e0, 0.1)
	g := b.MustBuild()
	x, err := newOn(t, NewMemorySource(g), 0, graph.Location{Edge: e0, T: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := x.Next(); ok {
		t.Fatal("facility behind q on one-way dead-end edge must be unreachable")
	}

	// Add the return edge 1→0: now reachable via the cycle.
	b2 := graph.NewBuilder(1, true)
	b2.AddNodes(2)
	e0 = b2.AddEdge(0, 1, vec.Of(1))
	b2.AddEdge(1, 0, vec.Of(1))
	f = b2.AddFacility(e0, 0.1)
	g2 := b2.MustBuild()
	x2, err := newOn(t, NewMemorySource(g2), 0, graph.Location{Edge: e0, T: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p, c, ok, err := x2.Next()
	if err != nil || !ok || p != f {
		t.Fatalf("NN = %d %v %v", p, ok, err)
	}
	// 0.5 to node 1, 1 back to node 0, 0.1 along e0.
	if math.Abs(c-1.6) > 1e-12 {
		t.Errorf("cost = %g, want 1.6", c)
	}
}

func TestExpansionTieOrderById(t *testing.T) {
	// Star: three facilities at identical cost must pop in id order.
	b := graph.NewBuilder(1, false)
	center := b.AddNode(0, 0)
	for i := 0; i < 3; i++ {
		v := b.AddNode(1, float64(i))
		e := b.AddEdge(center, v, vec.Of(2))
		b.AddFacility(e, 0.5)
	}
	g := b.MustBuild()
	loc, err := graph.LocationAtNode(g, center)
	if err != nil {
		t.Fatal(err)
	}
	x, err := newOn(t, NewMemorySource(g), 0, loc)
	if err != nil {
		t.Fatal(err)
	}
	for want := graph.FacilityID(0); want < 3; want++ {
		p, c, ok, err := x.Next()
		if err != nil || !ok {
			t.Fatal(err)
		}
		if p != want {
			t.Errorf("tie pop %d: got facility %d, want %d", want, p, want)
		}
		if math.Abs(c-1.0) > 1e-12 {
			t.Errorf("cost = %g, want 1", c)
		}
	}
}

// Expansion must agree with the Bellman-Ford oracle on random graphs, for
// every cost type, over memory sources.
func TestExpansionMatchesOracle(t *testing.T) {
	for trial := 0; trial < 120; trial++ {
		inst := testnet.Generate(int64(trial), testnet.ShapeOf(int64(trial)))
		g, loc, d := inst.G, inst.Loc, inst.G.D()
		for i := 0; i < d; i++ {
			oracle := testnet.FacilityCosts(g, loc, i)
			x, err := newOn(t, NewMemorySource(g), i, loc)
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, x)
			for p := 0; p < g.NumFacilities(); p++ {
				want := oracle[p]
				c, found := got[graph.FacilityID(p)]
				if math.IsInf(want, 1) {
					if found {
						t.Fatalf("trial %d cost %d: unreachable facility %d reported at %g", trial, i, p, c)
					}
					continue
				}
				if !found {
					t.Fatalf("trial %d cost %d: facility %d (cost %g) never reported", trial, i, p, want)
				}
				if math.Abs(c-want) > 1e-9*(1+want) {
					t.Fatalf("trial %d cost %d: facility %d cost %g, oracle %g", trial, i, p, c, want)
				}
			}
		}
	}
}

// The same agreement must hold end-to-end through the disk layer.
func TestExpansionMatchesOracleOnDisk(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		inst := testnet.Generate(int64(trial), testnet.ShapeOf(int64(trial)))
		g, loc, d := inst.G, inst.Loc, inst.G.D()
		dev, err := storage.BuildMem(g)
		if err != nil {
			t.Fatal(err)
		}
		net, err := storage.OpenOptions(dev, 0.1, storage.PoolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < d; i++ {
			oracle := testnet.FacilityCosts(g, loc, i)
			x, err := newOn(t, net, i, loc)
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, x)
			for p := 0; p < g.NumFacilities(); p++ {
				want := oracle[p]
				c, found := got[graph.FacilityID(p)]
				if math.IsInf(want, 1) != !found {
					t.Fatalf("trial %d: reachability mismatch for facility %d", trial, p)
				}
				if found && math.Abs(c-want) > 1e-9*(1+want) {
					t.Fatalf("trial %d: facility %d cost %g, oracle %g", trial, p, c, want)
				}
			}
		}
	}
}

func TestSharedSourceAccessBound(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(3)
		g := randomGraph(t, rng, d, false)
		loc := randomLocation(rng, g)

		mem := NewMemorySource(g)
		sc := acquire(t, mem)
		shared := sc.Shared(mem)
		for i := 0; i < d; i++ {
			x, err := New(shared, i, loc, sc)
			if err != nil {
				t.Fatal(err)
			}
			drain(t, x)
		}
		if mem.Count.Snapshot().Adjacency > int64(g.NumNodes()) {
			t.Fatalf("shared source fetched %d adjacency records for %d nodes", mem.Count.Snapshot().Adjacency, g.NumNodes())
		}
		if mem.Count.Snapshot().Facilities > int64(g.NumEdges()) {
			t.Fatalf("shared source fetched %d facility records for %d edges", mem.Count.Snapshot().Facilities, g.NumEdges())
		}

		// An unshared run of the same expansions must fetch at least as much.
		mem2 := NewMemorySource(g)
		for i := 0; i < d; i++ {
			x, err := newOn(t, mem2, i, loc)
			if err != nil {
				t.Fatal(err)
			}
			drain(t, x)
		}
		if mem2.Count.Snapshot().Adjacency < mem.Count.Snapshot().Adjacency {
			t.Fatalf("unshared adjacency accesses (%d) < shared (%d)?", mem2.Count.Snapshot().Adjacency, mem.Count.Snapshot().Adjacency)
		}
	}
}

func TestSharedSourceSameResults(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(2)
		g := randomGraph(t, rng, d, rng.Intn(2) == 0)
		loc := randomLocation(rng, g)
		for i := 0; i < d; i++ {
			xa, err := newOn(t, NewMemorySource(g), i, loc)
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemorySource(g)
			xb, err := newOn(t, acquire(t, mem).Shared(mem), i, loc)
			if err != nil {
				t.Fatal(err)
			}
			for {
				pa, ca, oka, err := xa.Next()
				if err != nil {
					t.Fatal(err)
				}
				pb, cb, okb, err := xb.Next()
				if err != nil {
					t.Fatal(err)
				}
				if oka != okb || pa != pb || math.Abs(ca-cb) > 1e-12 {
					t.Fatalf("shared expansion diverged: (%d,%g,%v) vs (%d,%g,%v)", pa, ca, oka, pb, cb, okb)
				}
				if !oka {
					break
				}
			}
		}
	}
}

func TestFacilityFilterSkipsRecords(t *testing.T) {
	// Two facilities on separate edges; allow only edge 1's facility. The
	// facility record of edge 0 must not be read after the filter is set.
	b := graph.NewBuilder(1, false)
	b.AddNodes(3)
	e0 := b.AddEdge(0, 1, vec.Of(1))
	e1 := b.AddEdge(1, 2, vec.Of(1))
	b.AddFacility(e0, 0.5)
	f1 := b.AddFacility(e1, 0.5)
	g := b.MustBuild()

	mem := NewMemorySource(g)
	loc, err := graph.LocationAtNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	x, err := newOn(t, mem, 0, loc)
	if err != nil {
		t.Fatal(err)
	}
	x.SetFilter(
		func(e graph.EdgeID) bool { return e == e1 },
		func(p graph.FacilityID) bool { return p == f1 },
	)
	p, _, ok, err := x.Next()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if p != f1 {
		t.Errorf("filtered NN = %d, want %d", p, f1)
	}
	// Only edge e1's facility record may have been fetched. (The query edge
	// record was read before the filter via EdgeInfo, not Facilities,
	// because node-0 placement puts q at an end-node of e0 — e0's record is
	// read via EdgeInfo's FacRef during New; tolerate exactly that one.)
	if mem.Count.Snapshot().Facilities > 2 {
		t.Errorf("facility records fetched %d times, want ≤ 2", mem.Count.Snapshot().Facilities)
	}
}

func TestFilterDropsInHeapFacilities(t *testing.T) {
	// A facility already en-heaped before the filter is installed must not
	// surface afterwards.
	b := graph.NewBuilder(1, false)
	b.AddNodes(2)
	e := b.AddEdge(0, 1, vec.Of(1))
	b.AddFacility(e, 0.9) // en-heaped at init (same edge as query)
	g := b.MustBuild()
	x, err := newOn(t, NewMemorySource(g), 0, graph.Location{Edge: e, T: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	x.SetFilter(func(graph.EdgeID) bool { return false }, func(graph.FacilityID) bool { return false })
	if _, _, ok, _ := x.Next(); ok {
		t.Error("filtered-out facility surfaced")
	}
}

func TestHeadKeyLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(t, rng, 1, false)
		loc := randomLocation(rng, g)
		x, err := newOn(t, NewMemorySource(g), 0, loc)
		if err != nil {
			t.Fatal(err)
		}
		for {
			head := x.HeadKey()
			p, c, ok, err := x.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if !math.IsInf(x.HeadKey(), 1) {
					t.Fatal("exhausted expansion must report +Inf head key")
				}
				break
			}
			if c < head-1e-12 {
				t.Fatalf("facility %d at %g popped below head key %g", p, c, head)
			}
		}
	}
}

// Equal keys pop nodes first, in push order whatever their ids, then
// facilities in id order.
func TestHeapOrdering(t *testing.T) {
	node := func(key float64, seq, id uint32) item { return item{key: key, tie: seq, id: id} }
	fac := func(key float64, id uint32) item { return item{key: key, tie: facilityTie | id, id: id} }
	var h minHeap
	h.push(fac(2, 9))
	h.push(node(2, 1, 5))
	h.push(fac(1, 1))
	h.push(fac(2, 3))
	h.push(node(2, 0, 7))

	want := []item{fac(1, 1), node(2, 0, 7), node(2, 1, 5), fac(2, 3), fac(2, 9)}
	for i, w := range want {
		got, ok := h.pop()
		if !ok || got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
	if _, ok := h.pop(); ok {
		t.Error("heap should be empty")
	}
	if _, ok := h.peek(); ok {
		t.Error("peek on empty heap should fail")
	}
}

func TestHeapRandomizedSort(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 20; trial++ {
		var h minHeap
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			id := uint32(rng.Intn(50))
			h.push(item{key: float64(rng.Intn(20)), tie: uint32(rng.Intn(2))<<31 | id, id: id})
		}
		prev, _ := h.pop()
		for {
			cur, ok := h.pop()
			if !ok {
				break
			}
			if cur.less(prev) {
				t.Fatalf("heap order violated: %+v after %+v", cur, prev)
			}
			prev = cur
		}
	}
}
