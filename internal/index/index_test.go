package index

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
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
		for j := r.off[it.node]; j < r.off[it.node+1]; j++ {
			relax(r.heads[j], it.key+cost(r.edges[j], i))
		}
	}
}

// fromCosts is FromCosts without an interrupt, which cannot fail.
func fromCosts(t *testing.T, g *graph.Graph, rank []graph.NodeID, cost func(e graph.EdgeID, costIdx int) float64) *Bounds {
	t.Helper()
	b, err := FromCosts(g, rank, cost, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// identity is the numbering of n nodes by their own ids.
func identity(n int) []graph.NodeID {
	rank := make([]graph.NodeID, n)
	for v := range rank {
		rank[v] = graph.NodeID(v)
	}
	return rank
}

// shuffled is a fixed random numbering of n nodes.
func shuffled(n int) []graph.NodeID {
	rank := identity(n)
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { rank[i], rank[j] = rank[j], rank[i] })
	return rank
}

// unranked returns b, numbered by rank, back in the graph's own numbering.
func unranked(b *Bounds, rank []graph.NodeID) *Bounds {
	out := &Bounds{d: b.d, numNodes: b.numNodes, data: make([]float64, len(b.data))}
	for i := 0; i < b.d; i++ {
		for v, r := range rank {
			out.data[i*b.numNodes+v] = b.data[i*b.numNodes+int(r)]
		}
	}
	return out
}

// boundHeap is the binary min-heap of the reference pass.
type boundHeap struct{ a []boundItem }

func (h *boundHeap) push(it boundItem) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.a[parent].key <= h.a[i].key {
			break
		}
		h.a[parent], h.a[i] = h.a[i], h.a[parent]
		i = parent
	}
}

func (h *boundHeap) pop() boundItem {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(h.a) {
			break
		}
		c := l
		if r < len(h.a) && h.a[r].key < h.a[l].key {
			c = r
		}
		if h.a[i].key <= h.a[c].key {
			break
		}
		h.a[i], h.a[c] = h.a[c], h.a[i]
		i = c
	}
	return top
}

// referenceBounds is the criterion-major table the reference pass builds,
// one criterion after another on one goroutine.
func referenceBounds(g *graph.Graph, cost func(e graph.EdgeID, costIdx int) float64) []float64 {
	n := g.NumNodes()
	data := make([]float64, g.D()*n)
	r := reverseArcs(g, identity(n))
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
				{"FromCosts", fromCosts(t, g, nil, scaled), referenceBounds(g, scaled)},
				{"FromCosts/ranked", unranked(fromCosts(t, g, shuffled(g.NumNodes()), scaled), shuffled(g.NumNodes())), referenceBounds(g, scaled)},
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

// A backward pass pops its frontier in non-decreasing key order: no pop,
// seed or relaxed entry, comes out below one already popped. The frontier
// merges the sorted seeds with a radix heap whose floor must never pass the
// next seed, or entries pushed after that seed would land below the floor
// and pop late; the pass's table could still come out right (a late pop
// only re-relaxes), so the bit-identity tests cannot see that, and this one
// counts out-of-order pops instead. testnet's networks have integer costs
// in {0, 1, 2} (zero-length edges, exact ties) and facilities at the ends
// and middles of edges, so seeds tie with each other and with relaxed keys;
// the continuous shape and the hard instances add real-valued keys. The
// loop below is backward's, instrumented; its table must equal FromGraph's.
func TestFrontierPopsInOrder(t *testing.T) {
	var graphs []*graph.Graph
	for seed := int64(0); seed < 300; seed++ {
		shape := testnet.ShapeOf(seed)
		shape.Continuous = seed%3 == 2
		if seed%10 == 0 {
			shape.Nodes = 400
		}
		graphs = append(graphs, testnet.Generate(seed, shape).G)
	}
	graphs = append(graphs, hardInstance(1, 3, false), hardInstance(2, 3, true))
	for gi, g := range graphs {
		n := g.NumNodes()
		rank := identity(n)
		r := reverseArcs(g, rank)
		var p Pass
		want := FromGraph(g).Data()
		for i := 0; i < g.D(); i++ {
			dist := make([]float64, n)
			w := r.seed(g, rank, i, dist, &p, func(e graph.EdgeID, i int) float64 { return g.Edge(e).W[i] })
			p.load()
			pops, late, last := 0, 0, math.Inf(-1)
			for {
				it, ok := p.f.pop()
				if !ok {
					break
				}
				pops++
				if it.key < last {
					late++
				}
				last = max(last, it.key)
				if it.key > dist[it.node] {
					continue
				}
				for j := r.off[it.node]; j < r.off[it.node+1]; j++ {
					if key := it.key + w[j]; key < dist[r.heads[j]] {
						dist[r.heads[j]] = key
						p.f.push(boundItem{key: key, node: r.heads[j]})
					}
				}
			}
			if late > 0 {
				t.Errorf("graph %d criterion %d: %d of %d pops came out below a key already popped", gi, i, late, pops)
			}
			for v := range dist {
				if math.Float64bits(dist[v]) != math.Float64bits(want[i*n+v]) {
					t.Fatalf("graph %d criterion %d node %d: instrumented pass %v, FromGraph %v", gi, i, v, dist[v], want[i*n+v])
				}
			}
		}
	}
}

// FromData accepts exactly a d × numNodes table and round-trips Data.
// A build polls its interrupt before it starts and then as its passes
// settle nodes, from every worker: an error ends it, returned with no
// table, whether it comes at the first poll or part way through the
// passes. A build whose interrupt never fails builds FromGraph's table.
func TestFromCostsInterrupt(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 4000, Facilities: 500, D: 2, Queries: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := inst.Graph
	stop := errors.New("stop")
	for _, after := range []int32{1, 2, 5} {
		var polls atomic.Int32
		b, err := FromCosts(g, nil, nil, func() error {
			if polls.Add(1) >= after {
				return stop
			}
			return nil
		})
		if b != nil || !errors.Is(err, stop) {
			t.Errorf("interrupt failing from poll %d: table %v, err %v", after, b != nil, err)
		}
	}
	var polls atomic.Int32
	b, err := FromCosts(g, nil, nil, func() error { polls.Add(1); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if polls.Load() < 5 {
		t.Errorf("a build over %d nodes polled its interrupt %d times", g.NumNodes(), polls.Load())
	}
	if !slices.Equal(b.Data(), FromGraph(g).Data()) {
		t.Error("a build with an interrupt differs from FromGraph's")
	}
}

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

// BenchmarkIndexFromGraph is the pruning index's build on the sf25 network
// (43 750 nodes, 25 000 facilities, d = 4, the benchmark's disk_paper
// instance) and on the paper's scale 1.0 (173 977 nodes, 100 000
// facilities): the d backward passes on up to GOMAXPROCS goroutines, in
// the graph's numbering.
func BenchmarkIndexFromGraph(b *testing.B) {
	for _, sc := range []struct {
		name              string
		nodes, facilities int
	}{{"sf25", 43_750, 25_000}, {"scale1", 173_977, 100_000}} {
		b.Run(sc.name, func(b *testing.B) {
			inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: sc.nodes, Facilities: sc.facilities, D: 4, Seed: 1, Queries: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FromGraph(inst.Graph)
			}
		})
	}
}
