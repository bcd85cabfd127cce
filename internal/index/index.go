// Package index holds the precomputed pruning index: per-criterion
// lower-bound vectors from every network node to its nearest facility,
// in the spirit of ParetoPrep's backward preparation pass. The bounds are
// computed once — at graph compile time (mcn.FromGraph), database build time
// (storage.Build, persisted in the database) or overlay compile time (one set
// for every elementary interval) — and consulted by the expansion layer as an
// admissible node-discard prune: a popped node label whose cost plus lower
// bound provably cannot contribute a result facility is dropped before its
// adjacency record is read.
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

// FromGraph computes the index for g's base edge costs.
func FromGraph(g *graph.Graph) *Bounds {
	return FromCosts(g, func(e graph.EdgeID, costIdx int) float64 {
		return g.Edge(e).W[costIdx]
	})
}

// FromCosts computes the index for g's topology under an alternative cost
// assignment (the timedep overlay's lowest cost at any instant). cost must
// return a non-negative weight for every (edge, criterion) pair, and must be
// safe for concurrent calls: the d backward passes run on up to GOMAXPROCS
// goroutines. Each pass owns its scratch and writes only its criterion's
// slice of the table, so the result is the same as one goroutine's.
func FromCosts(g *graph.Graph, cost func(e graph.EdgeID, costIdx int) float64) *Bounds {
	start := time.Now()
	d, n := g.D(), g.NumNodes()
	b := &Bounds{d: d, numNodes: n, data: make([]float64, d*n)}
	r := reverseArcs(g)
	workers := min(d, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := passScratch{w: make([]float64, g.NumEdges())}
			for i := w; i < d; i += workers {
				r.backward(g, i, b.data[i*n:(i+1)*n], &s, cost)
			}
		}()
	}
	wg.Wait()
	b.buildDur = time.Since(start)
	return b
}

// rarc is one reversed arc: the backward pass reaches to over edge.
type rarc struct {
	to   graph.NodeID
	edge graph.EdgeID
}

// reversed is a graph's reversed arc set in CSR form: the arcs into node v
// are arcs[off[v]:off[v+1]].
type reversed struct {
	off  []int32
	arcs []rarc
}

// reverseArcs builds the reversed arc set shared by every criterion's pass.
func reverseArcs(g *graph.Graph) reversed {
	n := g.NumNodes()

	// One reverse arc per traversable direction. Undirected edges are
	// traversable both ways, so the reversed arc set equals the forward one;
	// either way a single O(E) sweep over the edge list builds it without
	// consulting g.Arcs.
	deg := make([]int32, n+1)
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		deg[ed.V]++ // forward arc U→V reversed lands on V
		if !g.Directed() {
			deg[ed.U]++
		}
	}
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	arcs := make([]rarc, off[n])
	fill := make([]int32, n)
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		arcs[off[ed.V]+fill[ed.V]] = rarc{to: ed.U, edge: graph.EdgeID(e)}
		fill[ed.V]++
		if !g.Directed() {
			arcs[off[ed.U]+fill[ed.U]] = rarc{to: ed.V, edge: graph.EdgeID(e)}
			fill[ed.U]++
		}
	}
	return reversed{off: off, arcs: arcs}
}

// passScratch is what one goroutine's backward passes reuse: the pass's
// per-edge costs, its frontier and the seeds' sort buffer.
type passScratch struct {
	w   []float64
	f   frontier
	tmp []boundItem
}

// backward fills dist with every node's distance to its nearest facility
// under criterion i: a multi-source Dijkstra over the reversed arcs.
//
// The pass calls cost once per edge, into s.w, and relaxes from that array.
// The facility entry points seed dist directly; the seeded nodes, sorted by
// key once, are merged with a radix heap that holds only the relaxation
// frontier (see frontier). A node still settles at the least sum
// over its paths to a facility, each sum added in path order, so the table
// is bit-identical to one built by pushing every seed into a binary heap and
// calling cost per relaxation: float addition is monotone, so the order in
// which nodes of equal key settle changes no minimum.
func (r reversed) backward(g *graph.Graph, i int, dist []float64, s *passScratch, cost func(e graph.EdgeID, costIdx int) float64) {
	w := s.w
	for e := range w {
		w[e] = cost(graph.EdgeID(e), i)
	}
	s.seed(g, dist)

	// Settle nodes in increasing distance to their nearest facility,
	// relaxing along reversed arcs.
	f := &s.f
	for {
		it, ok := f.pop()
		if !ok {
			return
		}
		if it.key > dist[it.node] {
			continue // superseded entry
		}
		a := r.arcs[r.off[it.node]:r.off[it.node+1]]
		for j := range a {
			if key := it.key + w[a[j].edge]; key < dist[a[j].to] {
				dist[a[j].to] = key
				f.push(boundItem{key: key, node: a[j].to})
			}
		}
	}
}

// seed starts a pass over the edge costs in s.w: dist is +Inf but at the
// facility entry points, and the frontier holds those, sorted by key. A
// facility at fraction T of edge (U,V) is reached from U by traversing T·w
// forward; in an undirected network also from V by traversing (1−T)·w
// backward. A node enters the seed list once, when first seeded; its key is
// read back after all seeds are in.
func (s *passScratch) seed(g *graph.Graph, dist []float64) {
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	seeds := s.f.seeds[:0]
	seed := func(v graph.NodeID, key float64) {
		if key < dist[v] {
			if math.IsInf(dist[v], 1) {
				seeds = append(seeds, boundItem{node: v})
			}
			dist[v] = key
		}
	}
	for p := 0; p < g.NumFacilities(); p++ {
		fac := g.Facility(graph.FacilityID(p))
		ed := g.Edge(fac.Edge)
		c := s.w[fac.Edge]
		seed(ed.U, fac.T*c)
		if !g.Directed() {
			seed(ed.V, (1-fac.T)*c)
		}
	}
	for j := range seeds {
		seeds[j].key = dist[seeds[j].node]
	}
	seeds, s.tmp = sortByKey(seeds, slices.Grow(s.tmp[:0], len(seeds))[:len(seeds)])
	s.f.reset(seeds)
}

// FromData rehydrates a persisted bounds table (see storage.Build). data is
// criterion-major and retained, not copied.
func FromData(d, numNodes int, data []float64) (*Bounds, error) {
	if d < 1 || numNodes < 0 || len(data) != d*numNodes {
		return nil, fmt.Errorf("index: bounds table has %d values, want %d criteria × %d nodes", len(data), d, numNodes)
	}
	return &Bounds{d: d, numNodes: numNodes, data: data}, nil
}

// Renumbered returns b under another numbering of the same nodes: node v's
// bounds move to node rank[v].
func (b *Bounds) Renumbered(rank []graph.NodeID) *Bounds {
	out := &Bounds{d: b.d, numNodes: b.numNodes, data: make([]float64, len(b.data)), buildDur: b.buildDur}
	for i := 0; i < b.d; i++ {
		from, to := b.data[i*b.numNodes:(i+1)*b.numNodes], out.data[i*b.numNodes:(i+1)*b.numNodes]
		for v, r := range rank {
			to[r] = from[v]
		}
	}
	return out
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
