// Package index holds the precomputed pruning index: per-criterion
// lower-bound vectors from every network node to its nearest facility,
// in the spirit of ParetoPrep's backward preparation pass. The bounds are
// computed once — at graph compile time (mcn.FromGraph), database build time
// (storage.Build, persisted in the database) or overlay compile time (one set
// per elementary interval) — and consulted by the expansion layer as an
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
// the distances stale in the unsafe direction), which is why the facade
// detaches it on Maintain.
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
// assignment (the timedep overlay's per-interval effective costs). cost must
// return a non-negative weight for every (edge, criterion) pair.
func FromCosts(g *graph.Graph, cost func(e graph.EdgeID, costIdx int) float64) *Bounds {
	start := time.Now()
	d, n := g.D(), g.NumNodes()
	b := &Bounds{d: d, numNodes: n, data: make([]float64, d*n)}

	// Reverse adjacency, shared across criteria: one reverse arc per
	// traversable direction. Undirected edges are traversable both ways, so
	// the reversed arc set equals the forward one; either way a single O(E)
	// sweep over the edge list builds it without consulting g.Arcs.
	type rarc struct {
		to   graph.NodeID
		edge graph.EdgeID
	}
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

	h := boundHeap{}
	for i := 0; i < d; i++ {
		dist := b.data[i*n : (i+1)*n]
		for v := range dist {
			dist[v] = math.Inf(1)
		}
		h.a = h.a[:0]

		// Seed with the facility entry points: a facility at fraction T of
		// edge (U,V) is reached from U by traversing T·w forward; in an
		// undirected network also from V by traversing (1−T)·w backward.
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

		// Backward multi-source Dijkstra: settle nodes in increasing distance
		// to their nearest facility, relaxing along reversed arcs.
		for len(h.a) > 0 {
			it := h.pop()
			if it.key > dist[it.node] {
				continue // superseded entry
			}
			a := arcs[off[it.node]:off[it.node+1]]
			for j := range a {
				relax(a[j].to, it.key+cost(a[j].edge, i))
			}
		}
	}
	b.buildDur = time.Since(start)
	return b
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

// D returns the number of criteria the index covers.
func (b *Bounds) D() int { return b.d }

// NumNodes returns the node count the index was built for.
func (b *Bounds) NumNodes() int { return b.numNodes }

// Data exposes the criterion-major table for persistence (storage.Build).
// Callers must not mutate it.
func (b *Bounds) Data() []float64 { return b.data }

// Bytes returns the in-memory size of the bounds table.
func (b *Bounds) Bytes() int { return 8 * len(b.data) }

// BuildTime returns how long the backward passes took (zero for rehydrated
// tables, whose build cost was paid at storage.Build time).
func (b *Bounds) BuildTime() time.Duration { return b.buildDur }

// boundItem is one entry of the builder's binary min-heap.
type boundItem struct {
	key  float64
	node graph.NodeID
}

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
