package index

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// nearestFacility is the definition the index must reproduce, computed the
// slow way and in the opposite direction: a forward Bellman-Ford from v to a
// fixpoint, then the cheapest way onto any facility from either end of its
// edge. +Inf when v reaches no facility.
func nearestFacility(g *graph.Graph, v graph.NodeID, costIdx int) float64 {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[v] = 0
	for changed := true; changed; {
		changed = false
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(graph.EdgeID(e))
			w := ed.W[costIdx]
			if dist[ed.U]+w < dist[ed.V] {
				dist[ed.V] = dist[ed.U] + w
				changed = true
			}
			if !g.Directed() && dist[ed.V]+w < dist[ed.U] {
				dist[ed.U] = dist[ed.V] + w
				changed = true
			}
		}
	}
	best := math.Inf(1)
	for p := 0; p < g.NumFacilities(); p++ {
		f := g.Facility(graph.FacilityID(p))
		ed := g.Edge(f.Edge)
		w := ed.W[costIdx]
		best = math.Min(best, dist[ed.U]+f.T*w)
		if !g.Directed() {
			best = math.Min(best, dist[ed.V]+(1-f.T)*w)
		}
	}
	return best
}

// randomInstance assembles a connected random network with small integer
// costs (exact ties everywhere) and uniformly placed facilities.
func randomInstance(t *testing.T, seed int64, directed bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	topo := gen.RandomConnected(40, 25, rng)
	g, err := gen.Assemble(topo, gen.RandomIntegerCosts(topo, 3, 3, rng), gen.UniformFacilities(topo, 6, rng), directed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// twoComponents is 0-1-2 carrying the only facilities and 3-4-5 carrying
// none; in the directed reading node 2 is a sink past the facilities.
func twoComponents(directed bool) *graph.Graph {
	b := graph.NewBuilder(2, directed)
	b.AddNodes(6)
	b.AddEdge(0, 1, vec.Of(1, 2))
	e12 := b.AddEdge(1, 2, vec.Of(2, 1))
	b.AddEdge(3, 4, vec.Of(1, 1))
	b.AddEdge(4, 5, vec.Of(1, 1))
	b.AddFacility(e12, 0.5)
	b.AddFacility(e12, 1)
	return b.MustBuild()
}

// Every bound equals the brute-force nearest-facility distance, per
// criterion, and is +Inf exactly where no facility is reachable. Equality is
// up to float summation order (the backward pass and the forward reference
// add the same weights in opposite orders), which on these integer-cost
// instances leaves at most an ulp or two.
func TestBoundsEqualNearestFacilityDistance(t *testing.T) {
	instances := map[string]*graph.Graph{
		"undirected/seed=1":     randomInstance(t, 1, false),
		"undirected/seed=2":     randomInstance(t, 2, false),
		"directed/seed=1":       randomInstance(t, 1, true),
		"directed/seed=2":       randomInstance(t, 2, true),
		"disconnected":          twoComponents(false),
		"disconnected/directed": twoComponents(true),
	}
	for name, g := range instances {
		t.Run(name, func(t *testing.T) {
			b := FromGraph(g)
			if b.D() != g.D() || b.NumNodes() != g.NumNodes() {
				t.Fatalf("index is %d × %d, graph %d × %d", b.D(), b.NumNodes(), g.D(), g.NumNodes())
			}
			inf := 0
			for i := 0; i < g.D(); i++ {
				for v := 0; v < g.NumNodes(); v++ {
					got := b.LowerBound(i, graph.NodeID(v))
					want := nearestFacility(g, graph.NodeID(v), i)
					if math.IsInf(want, 1) {
						inf++
					}
					if got != want && !(math.Abs(got-want) <= 1e-12*want) {
						t.Errorf("criterion %d node %d: bound %v, nearest facility at %v", i, v, got, want)
					}
				}
			}
			if name == "disconnected" && inf != 2*3 {
				t.Errorf("%d unreachable (criterion, node) pairs, want the 3 nodes of the facility-free component × 2", inf)
			}
			if name == "disconnected/directed" && inf != 2*4 {
				t.Errorf("%d unreachable (criterion, node) pairs, want nodes 2..5 × 2", inf)
			}
		})
	}
}

// The criteria's passes run concurrently, but each on its own heap and its
// own slice of the table: the index is bit-identical to a one-goroutine
// build whatever GOMAXPROCS is.
func TestParallelBuildBitIdentical(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 2000, Facilities: 300, D: 5, Queries: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := FromGraph(inst.Graph).Data()
	for _, procs := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		got := FromGraph(inst.Graph).Data()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("GOMAXPROCS=%d: entry %d is %v, one goroutine built %v", procs, i, got[i], want[i])
			}
		}
	}
}

// FromData accepts exactly a d × numNodes table and round-trips Data.
func TestFromDataArity(t *testing.T) {
	g := randomInstance(t, 3, false)
	b := FromGraph(g)
	back, err := FromData(b.D(), b.NumNodes(), b.Data())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.D(); i++ {
		for v := 0; v < b.NumNodes(); v++ {
			if back.LowerBound(i, graph.NodeID(v)) != b.LowerBound(i, graph.NodeID(v)) {
				t.Fatalf("criterion %d node %d changed across FromData", i, v)
			}
		}
	}
	for _, bad := range []struct{ d, n, len int }{{0, 4, 0}, {2, -1, 0}, {2, 4, 7}} {
		if _, err := FromData(bad.d, bad.n, make([]float64, bad.len)); err == nil {
			t.Errorf("d=%d nodes=%d len=%d accepted", bad.d, bad.n, bad.len)
		}
	}
}
