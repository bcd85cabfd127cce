// Package index holds the precomputed pruning index: per-criterion
// lower-bound vectors from every network node to its nearest facility,
// in the spirit of ParetoPrep's backward preparation pass. The bounds are
// computed once — by an in-memory network's first within query
// (mcn.FromGraph), at database build time (storage.Build, persisted in the
// database) or by a time-dependent version's first within query (one set
// for every elementary interval) — and consulted by the expansion layer as
// an admissible node-discard prune: a popped node label whose cost plus
// lower bound provably cannot contribute a result facility is dropped
// before its adjacency record is read.
//
// The passes run on Pass, a multi-source Dijkstra over a CSR with a weight
// column, which a flat source also runs forward for the maintainer's node
// distances (flat.Source.NodeDistances).
//
// Admissibility: Bounds.LowerBound(i, v) ≤ dᵢ(v → p) for every facility p,
// where dᵢ is the network shortest distance under cost type i, so
// key(v) + LowerBound(i, v) never exceeds the cost at which any facility
// reachable through v would pop. The bounds are exact nearest-facility
// distances (not estimates): one backward multi-source Dijkstra per
// criterion, seeded at the facilities, over the reversed arc set.
//
// Floating point: forward expansions and the backward pass may sum the same
// edge weights in different orders, so a bound can exceed the forward
// distance by a few ulps. Consumers must therefore compare through
// SlackFactor (see its doc) rather than raw >; with that margin the prune
// decisions are provably consistent with the unpruned execution, which the
// randomized and fuzz equivalence suites pin byte-identically.
package index

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"mcn/internal/graph"
)

// SlackFactor deflates a cost-plus-lower-bound before comparing it against a
// pruning horizon: prune only when bound*SlackFactor still exceeds the
// horizon. The 1e-9 relative margin is ~6 orders of magnitude wider than the
// worst-case float64 summation reordering error on realistic path lengths,
// and far below any meaningful cost resolution, so it never masks a real
// prune on integer-cost networks and never over-prunes on real-valued ones.
const SlackFactor = 1 - 1e-9

// Bounds is the compiled pruning index: for each criterion i and node v, the
// exact network distance from v to the nearest facility under cost type i
// (+Inf where no facility is reachable). The zero value is unusable; build
// one with FromGraph/FromCosts or rehydrate a persisted table with FromData.
//
// Bounds implements expand.LowerBounder. It is immutable after construction
// and safe for concurrent use. It must not be consulted for graphs whose
// facility set has changed since the build (dynamic.Maintainer inserts make
// the distances stale in the unsafe direction); the maintainer's full
// expansions never read it.
type Bounds struct {
	d        int
	numNodes int
	data     []float64 // criterion-major: data[i*numNodes+v]
	buildDur time.Duration
}

// FromGraph computes the index for g's base edge costs, in g's node
// numbering.
func FromGraph(g *graph.Graph) *Bounds {
	b, _ := FromCosts(g, nil, nil, nil) // fails only through an interrupt
	return b
}

// FromCosts computes the index for g's topology under a cost assignment:
// cost(e, i) is edge e's weight under criterion i (nil: g's own edge costs;
// the timedep overlay passes each edge's lowest cost at any instant). The
// table is in the numbering rank gives, node v's bounds at rank[v] (nil:
// g's own ids), and the passes run in it: a flat source's or a database's
// locality order puts a node's in-arcs and its neighbours' distances near
// each other, which a build in graph order does not.
//
// cost must return a non-negative weight for every (edge, criterion) pair,
// and must be safe for concurrent calls: the d backward passes run on up to
// GOMAXPROCS goroutines. Each pass runs on pooled scratch (see Pass) and
// writes only its criterion's slice of the table, so the result is the
// same as one goroutine's, and the same in every numbering.
//
// interrupt, when not nil, is polled before the build starts, before each
// pass and then as the pass runs (see Pass.Run), from all of the build's
// goroutines at once; an error it returns ends the build, which then
// returns that error and no table.
func FromCosts(g *graph.Graph, rank []graph.NodeID, cost func(e graph.EdgeID, costIdx int) float64, interrupt func() error) (*Bounds, error) {
	start := time.Now()
	if interrupt != nil {
		if err := interrupt(); err != nil {
			return nil, err
		}
	}
	if cost == nil {
		cost = func(e graph.EdgeID, i int) float64 { return g.Edge(e).W[i] }
	}
	if rank == nil {
		rank = make([]graph.NodeID, g.NumNodes())
		for v := range rank {
			rank[v] = graph.NodeID(v)
		}
	}
	d, n := g.D(), g.NumNodes()
	b := &Bounds{d: d, numNodes: n, data: make([]float64, d*n)}
	r := reverseArcs(g, rank)
	workers := min(d, runtime.GOMAXPROCS(0))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := AcquirePass()
			defer p.Release()
			for i := w; i < d && errs[w] == nil; i += workers {
				errs[w] = r.backward(g, rank, i, b.data[i*n:(i+1)*n], p, cost, interrupt)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	b.buildDur = time.Since(start)
	return b, nil
}

// reversed is a graph's reversed arc set in CSR form, in some numbering:
// the arcs into node v come from heads[off[v]:off[v+1]], over the edges
// at the same positions of edges.
type reversed struct {
	off   []int32
	heads []graph.NodeID
	edges []graph.EdgeID
}

// reverseArcs builds the reversed arc set shared by every criterion's pass,
// node v numbered rank[v].
func reverseArcs(g *graph.Graph, rank []graph.NodeID) reversed {
	n := g.NumNodes()

	// One reverse arc per traversable direction. Undirected edges are
	// traversable both ways, so the reversed arc set equals the forward one;
	// either way a single O(E) sweep over the edge list builds it without
	// consulting g.Arcs.
	off := make([]int32, n+1)
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		off[rank[ed.V]+1]++ // forward arc U→V reversed lands on V
		if !g.Directed() {
			off[rank[ed.U]+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	r := reversed{off: off, heads: make([]graph.NodeID, off[n]), edges: make([]graph.EdgeID, off[n])}
	fill := slices.Clone(off[:n])
	add := func(to, from graph.NodeID, e graph.EdgeID) {
		r.heads[fill[to]], r.edges[fill[to]] = from, e
		fill[to]++
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		u, v := rank[ed.U], rank[ed.V]
		add(v, u, graph.EdgeID(e))
		if !g.Directed() {
			add(u, v, graph.EdgeID(e))
		}
	}
	return r
}

// backward fills dist with every node's distance to its nearest facility
// under criterion i: a multi-source Dijkstra over the reversed arcs, seeded
// at the facility entry points. A facility at fraction T of edge (U,V) is
// reached from U by traversing T·w forward; in an undirected network also
// from V by traversing (1−T)·w backward. It fails only through interrupt,
// which it polls before it seeds and then as Run settles nodes.
func (r reversed) backward(g *graph.Graph, rank []graph.NodeID, i int, dist []float64, p *Pass, cost func(e graph.EdgeID, costIdx int) float64, interrupt func() error) error {
	if interrupt != nil {
		if err := interrupt(); err != nil {
			return err
		}
	}
	return p.Run(r.off, r.heads, r.seed(g, rank, i, dist, p, cost), interrupt)
}

// seed starts backward's pass on p and returns its weight column: cost is
// called once per edge, in edge order, and the arcs' weights are gathered
// from those.
func (r reversed) seed(g *graph.Graph, rank []graph.NodeID, i int, dist []float64, p *Pass, cost func(e graph.EdgeID, costIdx int) float64) []float64 {
	p.edgeW = slices.Grow(p.edgeW[:0], g.NumEdges())[:g.NumEdges()]
	ew := p.edgeW
	for e := range ew {
		ew[e] = cost(graph.EdgeID(e), i)
	}
	w := p.Weights(len(r.edges))
	for j, e := range r.edges {
		w[j] = ew[e]
	}
	p.Start(dist)
	for q := 0; q < g.NumFacilities(); q++ {
		fac := g.Facility(graph.FacilityID(q))
		ed := g.Edge(fac.Edge)
		c := ew[fac.Edge]
		p.Seed(rank[ed.U], fac.T*c)
		if !g.Directed() {
			p.Seed(rank[ed.V], (1-fac.T)*c)
		}
	}
	return w
}

// Pass is the scratch of node-distance passes — multi-source Dijkstras
// over a CSR with a weight per arc (see Run) — kept from pass to pass and
// call to call: the weight column, the seeds and their sort buffer, and the
// frontier's buckets. The pruning index's backward passes and a flat
// source's forward ones (the maintainer's node distances) both run on it.
// Take one with AcquirePass and give it back with Release; a Pass serves
// one goroutine at a time.
type Pass struct {
	w     []float64
	edgeW []float64 // a backward pass's weights by edge id
	dist  []float64
	seeds []boundItem
	tmp   []boundItem
	f     frontier
}

var passes = sync.Pool{New: func() any { return new(Pass) }}

// AcquirePass returns a pass from the pool.
func AcquirePass() *Pass { return passes.Get().(*Pass) }

// Release returns p to the pool; the caller must not use it again.
func (p *Pass) Release() {
	p.dist = nil
	passes.Put(p)
}

// Weights returns the pass's weight column, m entries long, for the caller
// to fill before Run: its contents are left over from earlier passes.
func (p *Pass) Weights(m int) []float64 {
	p.w = slices.Grow(p.w[:0], m)[:m]
	return p.w
}

// Start begins a pass that writes dist, one entry per node of the CSR Run
// will be given: every node at +Inf, and no seed yet.
func (p *Pass) Start(dist []float64) {
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	p.dist, p.seeds = dist, p.seeds[:0]
}

// Seed offers node v at distance key; the pass starts from the least key
// offered for each node. A node enters the seed list once, when first
// seeded; its key is read back when Run sorts the seeds.
func (p *Pass) Seed(v graph.NodeID, key float64) {
	if key < p.dist[v] {
		if math.IsInf(p.dist[v], 1) {
			p.seeds = append(p.seeds, boundItem{node: v})
		}
		p.dist[v] = key
	}
}

// load sorts the seeds by their keys and loads them into the frontier.
func (p *Pass) load() {
	seeds := p.seeds
	for j := range seeds {
		seeds[j].key = p.dist[seeds[j].node]
	}
	p.seeds, p.tmp = sortByKey(seeds, slices.Grow(p.tmp[:0], len(seeds))[:len(seeds)])
	p.f.reset(p.seeds)
}

// pollEvery is how many nodes a pass settles between interrupt polls: a
// few microseconds of work, so a cancelled pass stops promptly, at a
// negligible cost per node.
const pollEvery = 256

// Run settles every node the seeds reach over the arcs of a CSR, whose node
// v's arcs lead to heads[off[v]:off[v+1]] at the weights at the same
// positions of w, and leaves each node's distance in Start's dist: the
// least sum over its paths from a seed, each sum added in path order, +Inf
// where no seed reaches. interrupt, when not nil, is polled every pollEvery
// settled nodes, and its error ends the pass.
//
// The seeded nodes, sorted by key once, are merged with a radix heap that
// holds only the relaxation frontier (see frontier). A node settles at the
// least sum over its paths whatever order nodes of equal key pop in, since
// float addition is monotone, so the distances are bit-identical to those
// of a Dijkstra that pushes every seed into a binary heap — or of a forward
// expand.Expansion from the same seeds.
func (p *Pass) Run(off []int32, heads []graph.NodeID, w []float64, interrupt func() error) error {
	p.load()
	dist, f := p.dist, &p.f
	for settled := 0; ; {
		it, ok := f.pop()
		if !ok {
			return nil
		}
		if it.key > dist[it.node] {
			continue // superseded entry
		}
		if settled++; settled%pollEvery == 0 && interrupt != nil {
			if err := interrupt(); err != nil {
				return err
			}
		}
		for j := off[it.node]; j < off[it.node+1]; j++ {
			if key := it.key + w[j]; key < dist[heads[j]] {
				dist[heads[j]] = key
				f.push(boundItem{key: key, node: heads[j]})
			}
		}
	}
}

// FromData rehydrates a persisted bounds table (see storage.Build). data is
// criterion-major and retained, not copied.
func FromData(d, numNodes int, data []float64) (*Bounds, error) {
	if d < 1 || numNodes < 0 || len(data) != d*numNodes {
		return nil, fmt.Errorf("index: bounds table has %d values, want %d criteria × %d nodes", len(data), d, numNodes)
	}
	return &Bounds{d: d, numNodes: numNodes, data: data}, nil
}

// LowerBound implements expand.LowerBounder: the exact distance from v to
// its nearest facility under cost type costIdx (+Inf if none is reachable).
func (b *Bounds) LowerBound(costIdx int, v graph.NodeID) float64 {
	return b.data[costIdx*b.numNodes+int(v)]
}

// Data exposes the criterion-major table for persistence (storage.Build).
// Callers must not mutate it.
func (b *Bounds) Data() []float64 { return b.data }

// Bytes returns the in-memory size of the bounds table.
func (b *Bounds) Bytes() int { return 8 * len(b.data) }

// BuildTime returns how long the backward passes took (zero for rehydrated
// tables, whose build cost was paid at storage.Build time).
func (b *Bounds) BuildTime() time.Duration { return b.buildDur }

// boundItem is one entry of a backward pass's frontier.
type boundItem struct {
	key  float64
	node graph.NodeID
}

// frontier is a backward pass's priority queue: the pass's seeds, sorted by
// key, merged with a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, J. ACM
// 1990) of the keys pushed since, over their IEEE-754 bits — for
// non-negative floats bit order is numeric order, and key + 0 turns −0 into
// +0. Pops come out in non-decreasing key order, in no particular order
// among equal keys, as long as no key is pushed below the last one popped,
// which Dijkstra over non-negative weights guarantees.
//
// Bucket b ≥ 1 of the heap holds the keys whose bits first differ from the
// floor's at bit b − 1, so every key in bucket b is below every key in
// bucket b + 1; zero holds the keys equal to the floor. When zero runs dry,
// pop moves the floor up to the lowest bucket's minimum and redistributes
// that bucket into lower ones. The floor must never pass the next seed, or
// keys pushed after that seed pops would land below it: so pop compares the
// next seed with the lowest bucket's minimum, kept in low, and raises the
// floor only when the heap's minimum is the one popped.
type frontier struct {
	seeds []boundItem
	next  int // seeds[next] is the next seed to pop

	floor uint64 // key bits of the heap's last minimum
	full  uint64 // bit b set when bucket b ≥ 1 is non-empty
	zero  []boundItem
	rest  [64][]boundItem // rest[0] is unused
	low   [64]uint64      // low[b] is the least key bits in rest[b]
}

func keyBits(key float64) uint64 { return math.Float64bits(key + 0) }

// reset empties the frontier, keeping its storage, and loads seeds, sorted
// by key, which it keeps.
func (f *frontier) reset(seeds []boundItem) {
	f.seeds, f.next = seeds, 0
	f.floor, f.zero = 0, f.zero[:0]
	for ; f.full != 0; f.full &= f.full - 1 {
		b := bits.TrailingZeros64(f.full)
		f.rest[b] = f.rest[b][:0]
	}
}

// sortByKey sorts items by key: an LSD radix sort on the keys' bits, eight
// counting passes of 8 bits between items and tmp (len(items) each). A pass
// whose digit is the same for every key is skipped. It returns the slice
// that holds the result, and the other.
func sortByKey(items, tmp []boundItem) (sorted, spare []boundItem) {
	var count [8][256]int
	for _, it := range items {
		k := keyBits(it.key)
		for p := range count {
			count[p][k>>(8*p)&0xff]++
		}
	}
	for p := range count {
		shift := 8 * p
		c := &count[p]
		if len(items) == 0 || c[keyBits(items[0].key)>>shift&0xff] == len(items) {
			continue
		}
		at := 0
		for digit, k := range c {
			c[digit] = at
			at += k
		}
		for _, it := range items {
			digit := keyBits(it.key) >> shift & 0xff
			tmp[c[digit]] = it
			c[digit]++
		}
		items, tmp = tmp, items
	}
	return items, tmp
}

// push adds it, whose key is at least the last key popped.
func (f *frontier) push(it boundItem) {
	k := keyBits(it.key)
	b := bits.Len64(k ^ f.floor)
	if b == 0 {
		f.zero = append(f.zero, it)
		return
	}
	if f.full&(1<<b) == 0 || k < f.low[b] {
		f.low[b] = k
	}
	f.rest[b] = append(f.rest[b], it)
	f.full |= 1 << b
}

// pop removes and returns an item of least key: the next seed when no key
// in the heap is lower; ok is false when the frontier is empty.
func (f *frontier) pop() (it boundItem, ok bool) {
	if len(f.zero) == 0 && f.full != 0 &&
		(f.next == len(f.seeds) || f.low[bits.TrailingZeros64(f.full)] < keyBits(f.seeds[f.next].key)) {
		f.refill()
	}
	if n := len(f.zero); n > 0 {
		it = f.zero[n-1]
		f.zero = f.zero[:n-1]
		return it, true
	}
	if f.next < len(f.seeds) {
		f.next++
		return f.seeds[f.next-1], true
	}
	return boundItem{}, false
}

// refill makes zero non-empty: the lowest non-empty bucket's minimum becomes
// the floor, and each of that bucket's items moves to the bucket it now
// belongs in, a lower one.
func (f *frontier) refill() {
	b := bits.TrailingZeros64(f.full)
	src := f.rest[b]
	f.floor = f.low[b]
	f.rest[b] = src[:0]
	f.full &^= 1 << b
	for _, it := range src {
		f.push(it)
	}
}
