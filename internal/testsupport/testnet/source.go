package testnet

import (
	"fmt"
	"sync/atomic"

	"mcn/internal/graph"
)

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

// MemorySource adapts an in-memory graph.Graph to expand.Source. It counts
// accesses (one per call) so algorithm-level access patterns can be
// asserted without a disk layer. Counts are incremented atomically — one
// MemorySource may serve many concurrent queries — and are read race-free
// through Count.Snapshot. MemorySource rebuilds each adjacency row on every
// call; it is the reference implementation, with flat.Source as the
// zero-allocation fast path production queries use.
type MemorySource struct {
	g     *graph.Graph
	Count Counter
}

// NewMemorySource returns a source reading from g.
func NewMemorySource(g *graph.Graph) *MemorySource {
	return &MemorySource{g: g}
}

// Graph returns the underlying graph.
func (m *MemorySource) Graph() *graph.Graph { return m.g }

// D implements expand.Source.
func (m *MemorySource) D() int { return m.g.D() }

// Directed implements expand.Source.
func (m *MemorySource) Directed() bool { return m.g.Directed() }

// Adjacency implements expand.Source.
func (m *MemorySource) Adjacency(v graph.NodeID) ([]graph.AdjEntry, error) {
	if int(v) >= m.g.NumNodes() {
		return nil, fmt.Errorf("testnet: node %d out of range", v)
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

// Facilities implements expand.Source. For MemorySource the record
// reference is the edge id itself.
func (m *MemorySource) Facilities(facRef uint64, count int) ([]graph.FacEntry, error) {
	if facRef == graph.NoFacRef || count == 0 {
		return nil, nil
	}
	e := graph.EdgeID(facRef)
	if int(e) >= m.g.NumEdges() {
		return nil, fmt.Errorf("testnet: facility ref %d out of range", facRef)
	}
	atomic.AddInt64(&m.Count.Facilities, 1)
	ids := m.g.EdgeFacilities(e)
	out := make([]graph.FacEntry, len(ids))
	for i, id := range ids {
		out[i] = graph.FacEntry{ID: id, T: m.g.Facility(id).T}
	}
	return out, nil
}

// FacilityEdge implements expand.Source.
func (m *MemorySource) FacilityEdge(p graph.FacilityID) (graph.EdgeID, error) {
	if int(p) >= m.g.NumFacilities() {
		return 0, fmt.Errorf("testnet: facility %d out of range", p)
	}
	atomic.AddInt64(&m.Count.FacilityEdge, 1)
	return m.g.Facility(p).Edge, nil
}

// EdgeInfo implements expand.Source.
func (m *MemorySource) EdgeInfo(e graph.EdgeID) (graph.EdgeInfo, error) {
	if int(e) >= m.g.NumEdges() {
		return graph.EdgeInfo{}, fmt.Errorf("testnet: edge %d out of range", e)
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
