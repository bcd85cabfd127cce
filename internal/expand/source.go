// Package expand implements incremental network expansion over multi-cost
// networks: the nearest-neighbour primitive (network expansion, NE [1]) that
// LSA probes once per cost type, and the record-sharing source that turns
// the same machinery into CEA by guaranteeing at most one underlying access
// per adjacency or facility record per query.
//
// It also owns every query's search state. There is one backing — dense,
// generation-stamped arrays indexed by node, facility and edge id (Scratch)
// — and one pool of it: a query Acquires a scratch for its source, starts
// its expansions on it, and Releases it. The arrays are sized up front for
// sources that declare their id spaces (Sized) and grow on demand for those
// that do not, so any Source, however it is wrapped, runs the same way.
package expand

import (
	"fmt"
	"sync/atomic"

	"mcn/internal/graph"
)

// Source provides the network data an expansion consumes. Both the
// disk-resident storage.Network and the in-memory MemorySource satisfy it.
type Source interface {
	// D returns the number of cost types.
	D() int
	// Directed reports whether edges are traversable from U to V only.
	Directed() bool
	// Adjacency returns the outgoing arcs of v with edge cost vectors and
	// facility-record pointers.
	Adjacency(v graph.NodeID) ([]graph.AdjEntry, error)
	// Facilities resolves a facility record reference.
	Facilities(facRef uint64, count int) ([]graph.FacEntry, error)
	// FacilityEdge returns the edge a facility lies on.
	FacilityEdge(p graph.FacilityID) (graph.EdgeID, error)
	// EdgeInfo resolves an edge to its end-nodes, costs and facilities.
	EdgeInfo(e graph.EdgeID) (graph.EdgeInfo, error)
}

// EdgeCoster is implemented by sources whose effective edge costs live in a
// cost overlay separate from the adjacency records — the time-dependent flat
// overlay, whose AdjEntry rows are compiled once and shared by every cost
// interval. When a source implements EdgeCoster, expansions take each arc's
// weight from EdgeCost instead of the entry's embedded W slice (the W fields
// then hold the base-interval costs and are not consulted). EdgeCost must be
// cheap and allocation-free: it sits in the Dijkstra relaxation loop.
type EdgeCoster interface {
	EdgeCost(e graph.EdgeID, costIdx int) float64
}

// costerOf returns the EdgeCoster behind src, unwrapping the per-query
// sharing layer (a SharedSource memoises records but must not hide the cost
// overlay of the source it wraps). Nil when costs live in the records.
func costerOf(src Source) EdgeCoster {
	if ss, ok := src.(*SharedSource); ok {
		return costerOf(ss.src)
	}
	if ec, ok := src.(EdgeCoster); ok {
		return ec
	}
	return nil
}

// Counter tallies logical source accesses, used by tests and benchmarks to
// verify sharing guarantees (e.g. CEA's ≤ 1 access per record). Sources
// increment the fields atomically; read them through Snapshot, which loads
// atomically and is therefore safe while queries are in flight.
type Counter struct {
	Adjacency    int64
	Facilities   int64
	EdgeInfo     int64
	FacilityEdge int64
}

// Snapshot returns an atomically-loaded copy of the counters. This is the
// race-free way to read a Counter that concurrent queries may still be
// incrementing.
func (c *Counter) Snapshot() Counter {
	return Counter{
		Adjacency:    atomic.LoadInt64(&c.Adjacency),
		Facilities:   atomic.LoadInt64(&c.Facilities),
		EdgeInfo:     atomic.LoadInt64(&c.EdgeInfo),
		FacilityEdge: atomic.LoadInt64(&c.FacilityEdge),
	}
}

// Total returns the sum of all access counts.
func (c Counter) Total() int64 {
	return c.Adjacency + c.Facilities + c.EdgeInfo + c.FacilityEdge
}

// MemorySource adapts an in-memory graph.Graph to the Source interface. It
// counts accesses (one per call) so algorithm-level access patterns can be
// asserted without a disk layer. Counts are incremented atomically — one
// MemorySource may serve many concurrent queries — and are read race-free
// through Count.Snapshot. MemorySource rebuilds each adjacency row on every
// call; it is the reference implementation, with flat.Source as the
// zero-allocation fast path production queries use.
type MemorySource struct {
	g     *graph.Graph
	Count Counter
}

// NewMemorySource returns a Source reading from g.
func NewMemorySource(g *graph.Graph) *MemorySource {
	return &MemorySource{g: g}
}

// Graph returns the underlying graph.
func (m *MemorySource) Graph() *graph.Graph { return m.g }

// D implements Source.
func (m *MemorySource) D() int { return m.g.D() }

// Directed implements Source.
func (m *MemorySource) Directed() bool { return m.g.Directed() }

// Adjacency implements Source.
func (m *MemorySource) Adjacency(v graph.NodeID) ([]graph.AdjEntry, error) {
	if int(v) >= m.g.NumNodes() {
		return nil, fmt.Errorf("expand: node %d out of range", v)
	}
	atomic.AddInt64(&m.Count.Adjacency, 1)
	arcs := m.g.Arcs(v)
	entries := make([]graph.AdjEntry, len(arcs))
	for i, a := range arcs {
		facs := m.g.EdgeFacilities(a.Edge)
		ref := graph.NoFacRef
		if len(facs) > 0 {
			ref = uint64(a.Edge)
		}
		entries[i] = graph.AdjEntry{
			Neighbor: a.Neighbor,
			Edge:     a.Edge,
			Forward:  a.Forward,
			W:        m.g.Edge(a.Edge).W,
			FacRef:   ref,
			FacCount: len(facs),
		}
	}
	return entries, nil
}

// Facilities implements Source. For MemorySource the record reference is the
// edge id itself.
func (m *MemorySource) Facilities(facRef uint64, count int) ([]graph.FacEntry, error) {
	if facRef == graph.NoFacRef || count == 0 {
		return nil, nil
	}
	e := graph.EdgeID(facRef)
	if int(e) >= m.g.NumEdges() {
		return nil, fmt.Errorf("expand: facility ref %d out of range", facRef)
	}
	atomic.AddInt64(&m.Count.Facilities, 1)
	ids := m.g.EdgeFacilities(e)
	out := make([]graph.FacEntry, len(ids))
	for i, id := range ids {
		out[i] = graph.FacEntry{ID: id, T: m.g.Facility(id).T}
	}
	return out, nil
}

// FacilityEdge implements Source.
func (m *MemorySource) FacilityEdge(p graph.FacilityID) (graph.EdgeID, error) {
	if int(p) >= m.g.NumFacilities() {
		return 0, fmt.Errorf("expand: facility %d out of range", p)
	}
	atomic.AddInt64(&m.Count.FacilityEdge, 1)
	return m.g.Facility(p).Edge, nil
}

// EdgeInfo implements Source.
func (m *MemorySource) EdgeInfo(e graph.EdgeID) (graph.EdgeInfo, error) {
	if int(e) >= m.g.NumEdges() {
		return graph.EdgeInfo{}, fmt.Errorf("expand: edge %d out of range", e)
	}
	atomic.AddInt64(&m.Count.EdgeInfo, 1)
	edge := m.g.Edge(e)
	facs := m.g.EdgeFacilities(e)
	ref := graph.NoFacRef
	if len(facs) > 0 {
		ref = uint64(e)
	}
	return graph.EdgeInfo{U: edge.U, V: edge.V, W: edge.W, FacRef: ref, FacCount: len(facs)}, nil
}

// SharedSource memoises every record fetched from an underlying source for
// the lifetime of one query. Running the d per-cost expansions of a query
// over one SharedSource yields CEA's defining guarantee: each node's
// adjacency information and each edge's facility record is fetched from the
// underlying store at most once per query, no matter how many expansions
// traverse it (paper Sec. IV-B).
type SharedSource struct {
	src      Source
	adj      map[graph.NodeID][]graph.AdjEntry
	facs     map[uint64][]graph.FacEntry
	edges    map[graph.EdgeID]graph.EdgeInfo
	facEdges map[graph.FacilityID]graph.EdgeID
}

// NewSharedSource returns a fresh per-query sharing layer over src.
func NewSharedSource(src Source) *SharedSource {
	return &SharedSource{
		src:      src,
		adj:      make(map[graph.NodeID][]graph.AdjEntry),
		facs:     make(map[uint64][]graph.FacEntry),
		edges:    make(map[graph.EdgeID]graph.EdgeInfo),
		facEdges: make(map[graph.FacilityID]graph.EdgeID),
	}
}

// D implements Source.
func (s *SharedSource) D() int { return s.src.D() }

// Directed implements Source.
func (s *SharedSource) Directed() bool { return s.src.Directed() }

// Adjacency implements Source.
func (s *SharedSource) Adjacency(v graph.NodeID) ([]graph.AdjEntry, error) {
	if entries, ok := s.adj[v]; ok {
		return entries, nil
	}
	entries, err := s.src.Adjacency(v)
	if err != nil {
		return nil, err
	}
	s.adj[v] = entries
	return entries, nil
}

// Facilities implements Source.
func (s *SharedSource) Facilities(facRef uint64, count int) ([]graph.FacEntry, error) {
	if facRef == graph.NoFacRef || count == 0 {
		return nil, nil
	}
	if facs, ok := s.facs[facRef]; ok {
		return facs, nil
	}
	facs, err := s.src.Facilities(facRef, count)
	if err != nil {
		return nil, err
	}
	s.facs[facRef] = facs
	return facs, nil
}

// FacilityEdge implements Source.
func (s *SharedSource) FacilityEdge(p graph.FacilityID) (graph.EdgeID, error) {
	if e, ok := s.facEdges[p]; ok {
		return e, nil
	}
	e, err := s.src.FacilityEdge(p)
	if err != nil {
		return 0, err
	}
	s.facEdges[p] = e
	return e, nil
}

// EdgeInfo implements Source.
func (s *SharedSource) EdgeInfo(e graph.EdgeID) (graph.EdgeInfo, error) {
	if info, ok := s.edges[e]; ok {
		return info, nil
	}
	info, err := s.src.EdgeInfo(e)
	if err != nil {
		return graph.EdgeInfo{}, err
	}
	s.edges[e] = info
	return info, nil
}
