// Package flat compiles an in-memory graph.Graph into compressed-sparse-row
// (CSR) arrays served through the expand.Source seam with zero per-call
// allocation. It is the in-memory fast path of the library: where the
// tests' reference source, testnet.MemorySource, rebuilds each adjacency
// row — including per-arc facility lookups — on every Adjacency call, a
// flat.Source resolves everything once at compile time and answers every
// record request with a shared read-only sub-slice of one contiguous array.
//
// The layout mirrors the paper's adjacency/facility files (Fig. 2), but as
// offset-indexed arrays instead of paged B+-trees:
//
//	adjOff[v] : adjOff[v+1]  → the prebuilt AdjEntry row of node v
//	facOff[e] : facOff[e+1]  → the FacEntry row of edge e
//	edgeInfo[e]              → the resolved EdgeInfo of edge e
//	facEdge[p]               → the edge facility p lies on
//
// Node ids are the source's own: Compile numbers the nodes in
// graph.LocalityOrder, the Hilbert order of their coordinates that the disk
// store lays its records out in, and the adjacency rows, the EdgeInfo
// end-nodes and the dense expansion marks (indexed by node id) all follow
// it. A Dijkstra wavefront grows through neighbouring space, so what it
// reads next lies in cache lines it has just read. The cost vectors the
// rows carry are copied into one slab, d float64 per arc in row order, so a
// row's costs sit next to it rather than behind pointers into the graph's
// edges. Edge and facility ids are the graph's. The numbering shows in no
// answer and no work counter (expand's heap ties nodes by push order, not
// by id), but a pruning index must be in it: build one with Source.Bounds.
//
// flat.Source additionally implements expand.Sized (declared id spaces, so
// a query's Dijkstra state is allocated at full size up front) and
// expand.ZeroCopy (records are free to re-fetch, so CEA's per-query record
// memo is skipped — LSA and CEA are identical over a flat source, as the
// sharing CEA exists to provide costs nothing here).
//
// Deliberately, flat.Source does not count accesses: atomic counters on the
// hot path would bounce one cache line between every worker of a concurrent
// engine. Tests that assert access patterns use testnet.MemorySource.
package flat

import (
	"fmt"

	"mcn/internal/graph"
	"mcn/internal/index"
)

// Source is a CSR compilation of an in-memory multi-cost network. It is
// immutable after Compile and safe for any number of concurrent readers.
type Source struct {
	d        int
	directed bool
	numFacs  int

	adjOff  []int32          // len nodes+1; CSR offsets into adjRows
	adjRows []graph.AdjEntry // prebuilt adjacency entries, grouped by tail node
	facOff  []int32          // len edges+1; CSR offsets into facRows
	facRows []graph.FacEntry // facility entries grouped by edge, sorted by T
	edges   []graph.EdgeInfo // resolved edge records
	facEdge []graph.EdgeID   // edge of each facility
	// rank maps a graph node id to the source's node id.
	rank []graph.NodeID
}

// Compile builds the CSR representation of g, its nodes numbered in
// graph.LocalityOrder. The cost vectors of the returned EdgeInfo records are
// shared with g; both must be treated as read-only (graph.Graph is immutable
// by construction).
func Compile(g *graph.Graph) *Source {
	n, e, p, d := g.NumNodes(), g.NumEdges(), g.NumFacilities(), g.D()
	order := graph.LocalityOrder(g)
	s := &Source{
		d:        d,
		directed: g.Directed(),
		numFacs:  p,
		adjOff:   make([]int32, n+1),
		facOff:   make([]int32, e+1),
		edges:    make([]graph.EdgeInfo, e),
		facEdge:  make([]graph.EdgeID, p),
		rank:     make([]graph.NodeID, n),
	}
	for r, v := range order {
		s.rank[v] = graph.NodeID(r)
	}

	totalFacs := 0
	for i := 0; i < e; i++ {
		totalFacs += len(g.EdgeFacilities(graph.EdgeID(i)))
	}
	s.facRows = make([]graph.FacEntry, 0, totalFacs)
	for i := 0; i < e; i++ {
		id := graph.EdgeID(i)
		s.facOff[i] = int32(len(s.facRows))
		for _, f := range g.EdgeFacilities(id) {
			s.facRows = append(s.facRows, graph.FacEntry{ID: f, T: g.Facility(f).T})
		}
		edge := g.Edge(id)
		ref, count := facRef(g, id)
		s.edges[i] = graph.EdgeInfo{U: s.rank[edge.U], V: s.rank[edge.V], W: edge.W, FacRef: ref, FacCount: count}
	}
	s.facOff[e] = int32(len(s.facRows))

	totalArcs := 0
	for v := 0; v < n; v++ {
		totalArcs += g.Degree(graph.NodeID(v))
	}
	s.adjRows = make([]graph.AdjEntry, 0, totalArcs)
	costs := make([]float64, 0, totalArcs*d)
	for r, v := range order {
		s.adjOff[r] = int32(len(s.adjRows))
		for _, a := range g.Arcs(v) {
			ref, count := facRef(g, a.Edge)
			at := len(costs)
			costs = append(costs, g.Edge(a.Edge).W...)
			s.adjRows = append(s.adjRows, graph.AdjEntry{
				Neighbor: s.rank[a.Neighbor],
				Edge:     a.Edge,
				Forward:  a.Forward,
				W:        costs[at : at+d : at+d],
				FacRef:   ref,
				FacCount: count,
			})
		}
	}
	s.adjOff[n] = int32(len(s.adjRows))

	for i := 0; i < p; i++ {
		s.facEdge[i] = g.Facility(graph.FacilityID(i)).Edge
	}
	return s
}

// Bounds returns b, a pruning index built over the compiled graph's node ids
// (index.FromGraph, index.FromCosts), renumbered into s's: the only form an
// expansion over s, or over a View of it, may consult.
func (s *Source) Bounds(b *index.Bounds) *index.Bounds { return b.Renumbered(s.rank) }

// facRef matches testnet.MemorySource's record-reference convention: the
// edge id itself, or NoFacRef for facility-free edges.
func facRef(g *graph.Graph, e graph.EdgeID) (uint64, int) {
	count := len(g.EdgeFacilities(e))
	if count == 0 {
		return graph.NoFacRef, 0
	}
	return uint64(e), count
}

// D implements expand.Source.
func (s *Source) D() int { return s.d }

// Directed implements expand.Source.
func (s *Source) Directed() bool { return s.directed }

// NumNodes implements expand.Sized.
func (s *Source) NumNodes() int { return len(s.adjOff) - 1 }

// NumEdges returns the edge count.
func (s *Source) NumEdges() int { return len(s.edges) }

// NumFacilities implements expand.Sized.
func (s *Source) NumFacilities() int { return s.numFacs }

// ZeroCopyRecords implements expand.ZeroCopy.
func (s *Source) ZeroCopyRecords() bool { return true }

// Adjacency implements expand.Source. The returned slice is a read-only view
// into the compiled arrays: no allocation, no copying, shared by all
// callers.
func (s *Source) Adjacency(v graph.NodeID) ([]graph.AdjEntry, error) {
	if int(v) >= len(s.adjOff)-1 {
		return nil, fmt.Errorf("flat: node %d out of range", v)
	}
	return s.adjRows[s.adjOff[v]:s.adjOff[v+1]], nil
}

// Facilities implements expand.Source; facRef is the edge id, as with
// testnet.MemorySource. The returned slice is a shared read-only view.
func (s *Source) Facilities(facRef uint64, count int) ([]graph.FacEntry, error) {
	if facRef == graph.NoFacRef || count == 0 {
		return nil, nil
	}
	e := graph.EdgeID(facRef)
	if int(e) >= len(s.edges) {
		return nil, fmt.Errorf("flat: facility ref %d out of range", facRef)
	}
	return s.facRows[s.facOff[e]:s.facOff[e+1]], nil
}

// FacilityEdge implements expand.Source.
func (s *Source) FacilityEdge(p graph.FacilityID) (graph.EdgeID, error) {
	if int(p) >= len(s.facEdge) {
		return 0, fmt.Errorf("flat: facility %d out of range", p)
	}
	return s.facEdge[p], nil
}

// EdgeInfo implements expand.Source.
func (s *Source) EdgeInfo(e graph.EdgeID) (graph.EdgeInfo, error) {
	if int(e) >= len(s.edges) {
		return graph.EdgeInfo{}, fmt.Errorf("flat: edge %d out of range", e)
	}
	return s.edges[e], nil
}
