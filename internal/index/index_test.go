package index

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// D returns the number of criteria the index covers.
func (b *Bounds) D() int { return b.d }

// NumNodes returns the node count the index was built for.
func (b *Bounds) NumNodes() int { return b.numNodes }

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

// randomInstance is testnet's hard-case network for seed, d = 3: integer
// costs with zero-length edges, parallel edges, and components that reach
// no facility.
func randomInstance(seed int64, directed bool) *graph.Graph {
	return testnet.Generate(seed, testnet.Shape{D: 3, Directed: directed}).G
}

// twoComponents is 0-1-2 carrying the only facilities and 3-4-5 carrying
// none; in the directed reading node 2 is a sink past the facilities.
func twoComponents(directed bool) *graph.Graph {
	b := graph.NewBuilder(2, directed)
	testnet.AddNodes(b, 6)
	b.AddEdge(0, 1, vec.Of(1, 2))
	e12 := b.AddEdge(1, 2, vec.Of(2, 1))
	b.AddEdge(3, 4, vec.Of(1, 1))
	b.AddEdge(4, 5, vec.Of(1, 1))
	b.AddFacility(e12, 0.5)
	b.AddFacility(e12, 1)
	return testnet.MustBuild(b)
}

// Every bound equals the brute-force nearest-facility distance, per
// criterion, and is +Inf exactly where no facility is reachable. Equality is
// up to float summation order (the backward pass and the forward reference
// add the same weights in opposite orders), which on these integer-cost
// instances leaves at most an ulp or two.
func TestBoundsEqualNearestFacilityDistance(t *testing.T) {
	instances := map[string]*graph.Graph{
		"undirected/seed=1":     randomInstance(1, false),
		"undirected/seed=2":     randomInstance(2, false),
		"directed/seed=1":       randomInstance(1, true),
		"directed/seed=2":       randomInstance(2, true),
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

// referenceBackward is the backward pass as first written, kept as the
// reference the index must reproduce bit for bit: every facility entry point
// pushed on the heap, and cost called once per relaxation.
func (r reversed) referenceBackward(g *graph.Graph, i int, dist []float64, h *boundHeap, cost func(e graph.EdgeID, costIdx int) float64) {
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	h.a = h.a[:0]

	// Seed with the facility entry points: a facility at fraction T of edge
	// (U,V) is reached from U by traversing T·w forward; in an undirected
	// network also from V by traversing (1−T)·w backward.
	relax := func(v graph.NodeID, key float64) {
		if key < dist[v] {
			dist[v] = key
			h.push(boundItem{key: key, node: v})
		}
	}
	for p := 0; p < g.NumFacilities(); p++ {
		fac := g.Facility(graph.FacilityID(p))
		ed := g.Edge(fac.Edge)
		w := cost(fac.Edge, i)
		relax(ed.U, fac.T*w)
		if !g.Directed() {
			relax(ed.V, (1-fac.T)*w)
		}
	}

	// Settle nodes in increasing distance to their nearest facility, relaxing
	// along reversed arcs.
	for len(h.a) > 0 {
		it := h.pop()
		if it.key > dist[it.node] {
			continue // superseded entry
		}
		a := r.arcs[r.off[it.node]:r.off[it.node+1]]
		for j := range a {
			relax(a[j].to, it.key+cost(a[j].edge, i))
		}
	}
}

// referenceBounds is the criterion-major table the reference pass builds,
// one criterion after another on one goroutine.
func referenceBounds(g *graph.Graph, cost func(e graph.EdgeID, costIdx int) float64) []float64 {
	n := g.NumNodes()
	data := make([]float64, g.D()*n)
	r := reverseArcs(g)
	var h boundHeap
	for i := 0; i < g.D(); i++ {
		r.referenceBackward(g, i, data[i*n:(i+1)*n], &h, cost)
	}
	return data
}

// hardInstance is a random network biased towards the cases where the order
// of float additions and the handling of seeds matter: real-valued costs
// with a share of zero-length edges, parallel edges, a facility-free
// component, facilities at T=0 and T=1 and several on one edge.
func hardInstance(seed int64, d int, directed bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(d, directed)
	const n, isolated = 300, 40 // nodes n-isolated.. form a facility-free component
	testnet.AddNodes(b, n)
	costs := func() vec.Costs {
		c := make(vec.Costs, d)
		for i := range c {
			if rng.Intn(8) > 0 {
				c[i] = rng.Float64() * 10 / 3
			}
		}
		return c
	}
	// edge adds a random edge among nodes lo..hi-1, and now and then a
	// parallel one with its own costs.
	var main []graph.EdgeID
	edge := func(lo, hi int) {
		u := lo + rng.Intn(hi-lo)
		v := lo + (u-lo+1+rng.Intn(hi-lo-1))%(hi-lo)
		for k := 1 + rng.Intn(10)/9; k > 0; k-- {
			main = append(main, b.AddEdge(graph.NodeID(u), graph.NodeID(v), costs()))
		}
	}
	for e := 0; e < 3*(n-isolated); e++ {
		edge(0, n-isolated)
	}
	facEdges := len(main)
	for e := 0; e < 2*isolated; e++ {
		edge(n-isolated, n)
	}
	for p := 0; p < 60; p++ {
		e := main[rng.Intn(facEdges)]
		switch rng.Intn(4) {
		case 0:
			b.AddFacility(e, 0)
		case 1:
			b.AddFacility(e, 1)
		case 2:
			b.AddFacility(e, rng.Float64())
			b.AddFacility(e, rng.Float64())
		default:
			b.AddFacility(e, rng.Float64())
		}
	}
	return testnet.MustBuild(b)
}

// The index reproduces the reference pass bit for bit — the same float64
// bits in every entry, +Inf rows included — from FromGraph and from FromCosts
// under a non-base cost assignment, at one and at four goroutines.
func TestBoundsMatchReferenceBitForBit(t *testing.T) {
	noFacilities := graph.NewBuilder(2, false)
	testnet.AddNodes(noFacilities, 3)
	noFacilities.AddEdge(0, 1, vec.Of(1, 2))
	noFacilities.AddEdge(1, 2, vec.Of(0, 1))
	instances := map[string]*graph.Graph{
		"hard/undirected":       hardInstance(1, 3, false),
		"hard/directed":         hardInstance(2, 3, true),
		"hard/undirected/d=1":   hardInstance(3, 1, false),
		"hard/directed/d=1":     hardInstance(4, 1, true),
		"disconnected":          twoComponents(false),
		"disconnected/directed": twoComponents(true),
		"no facilities":         testnet.MustBuild(noFacilities),
		"empty":                 testnet.MustBuild(graph.NewBuilder(2, false)),
	}
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 2000, Facilities: 300, D: 4, Queries: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	instances["generated"] = inst.Graph
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for name, g := range instances {
		base := func(e graph.EdgeID, i int) float64 { return g.Edge(e).W[i] }
		scaled := func(e graph.EdgeID, i int) float64 { return g.Edge(e).W[i]*0.37 + float64(int(e)%7)/10 }
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, tc := range []struct {
				kind string
				got  *Bounds
				want []float64
			}{
				{"FromGraph", FromGraph(g), referenceBounds(g, base)},
				{"FromCosts", FromCosts(g, scaled), referenceBounds(g, scaled)},
			} {
				got := tc.got.Data()
				if len(got) != len(tc.want) {
					t.Fatalf("%s %s GOMAXPROCS=%d: %d entries, reference %d", name, tc.kind, procs, len(got), len(tc.want))
				}
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(tc.want[j]) {
						t.Fatalf("%s %s GOMAXPROCS=%d: entry %d is %v, reference %v", name, tc.kind, procs, j, got[j], tc.want[j])
					}
				}
			}
		}
	}
}

// FromData accepts exactly a d × numNodes table and round-trips Data.
func TestFromDataArity(t *testing.T) {
	g := randomInstance(3, false)
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
