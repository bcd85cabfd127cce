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

import "mcn/internal/graph"

// Source provides the network data an expansion consumes. The product's two
// sources satisfy it without importing this package: the disk-resident
// storage.Network and the in-memory flat.Source (and its time-dependent
// views). The tests' reference adapter over a graph.Graph,
// testnet.MemorySource, is the oracle the flat path is pinned to.
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

// NodeDistancer is implemented by sources that compute a location's
// distance to every node under one cost type on a dedicated pass, without
// the facility records and queue of an Expansion (the flat source, over its
// heads column). NodeDistances writes into dst (reusing its backing array
// when large enough) and returns what, indexed by NodeID, an exhausted
// node-only expansion from loc under costIdx would return from Distances:
// the same bits, +Inf where loc does not reach. interrupt, when not nil, is
// polled before the query edge is read and periodically during the pass;
// its error ends the call. Calls may run concurrently.
type NodeDistancer interface {
	NodeDistances(loc graph.Location, costIdx int, dst []float64, interrupt func() error) ([]float64, error)
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

// decoder is implemented by stores that decode records into memory the
// caller owns (storage.Network). An expansion over one decodes into buffers
// of its state unit and the record memo into its arenas, so once those have
// grown a record fetch allocates nothing.
type decoder interface {
	AppendAdjacency(dst []graph.AdjEntry, costs []float64, v graph.NodeID) ([]graph.AdjEntry, []float64, error)
	AppendFacilities(dst []graph.FacEntry, facRef uint64, count int) ([]graph.FacEntry, error)
}

// SharedSource memoises every record fetched from an underlying source for
// the lifetime of one query. Running the d per-cost expansions of a query
// over one SharedSource yields CEA's defining guarantee: each node's
// adjacency information and each edge's facility record is fetched from the
// underlying store at most once per query, no matter how many expansions
// traverse it (paper Sec. IV-B).
//
// It lives in the query's Scratch (see Scratch.Shared). Dense indexes by
// node, edge and facility id, generation-stamped like the Dijkstra marks,
// locate memoised records in append-only arenas that keep their capacity
// from query to query; facility records, keyed by an opaque reference, are
// indexed by a map that is cleared, not re-made.
type SharedSource struct {
	src Source
	dec decoder
	gen uint32
	// Id-space bounds of src (the scratch's).
	nodes, edges, facs int

	adjAt     []span // by node id, into adj
	edgeAt    []span // by edge id, into infos
	facEdgeAt []span // by facility id; off is the edge id
	facAt     map[uint64]span

	adj        []graph.AdjEntry
	costs      []float64 // the cost vectors of decoded adj entries
	infos      []graph.EdgeInfo
	facEntries []graph.FacEntry
}

// span locates one memoised record in an arena; it is current where stamp
// is the memo's generation.
type span struct{ stamp, off, n uint32 }

// slot returns id's entry of idx, growing an undeclared id space; nil for an
// id outside a declared one, which only the source itself can report on.
func slot(idx *[]span, id, limit int) *span {
	if id >= len(*idx) {
		if id >= limit {
			return nil
		}
		*idx = grown(*idx, id, limit)
	}
	return &(*idx)[id]
}

// bind empties the memo and puts it over src for one query.
func (s *SharedSource) bind(src Source, sc *Scratch) {
	s.src = src
	s.dec, _ = src.(decoder)
	s.nodes, s.edges, s.facs = sc.nodes, sc.edges, sc.facs
	s.adjAt, s.edgeAt, s.facEdgeAt = fit(s.adjAt, s.nodes), fit(s.edgeAt, s.edges), fit(s.facEdgeAt, s.facs)
	s.adj, s.costs, s.infos, s.facEntries = s.adj[:0], s.costs[:0], s.infos[:0], s.facEntries[:0]
	if s.facAt == nil {
		s.facAt = make(map[uint64]span)
	}
	clear(s.facAt)
	s.gen++
	if s.gen == 0 { // wrap-around: clear the stamps for real, as denseState.bump does
		clear(s.adjAt[:cap(s.adjAt)])
		clear(s.edgeAt[:cap(s.edgeAt)])
		clear(s.facEdgeAt[:cap(s.facEdgeAt)])
		s.gen = 1
	}
}

// D implements Source.
func (s *SharedSource) D() int { return s.src.D() }

// Directed implements Source.
func (s *SharedSource) Directed() bool { return s.src.Directed() }

// Adjacency implements Source.
func (s *SharedSource) Adjacency(v graph.NodeID) ([]graph.AdjEntry, error) {
	at := slot(&s.adjAt, int(v), s.nodes)
	if at == nil {
		return s.src.Adjacency(v)
	}
	if at.stamp != s.gen {
		off := len(s.adj)
		var entries []graph.AdjEntry
		var err error
		if s.dec != nil {
			s.adj, s.costs, err = s.dec.AppendAdjacency(s.adj, s.costs, v)
		} else if entries, err = s.src.Adjacency(v); err == nil {
			s.adj = append(s.adj, entries...)
		}
		if err != nil {
			return nil, err
		}
		*at = span{stamp: s.gen, off: uint32(off), n: uint32(len(s.adj) - off)}
	}
	end := at.off + at.n
	return s.adj[at.off:end:end], nil
}

// Facilities implements Source.
func (s *SharedSource) Facilities(facRef uint64, count int) ([]graph.FacEntry, error) {
	if facRef == graph.NoFacRef || count == 0 {
		return nil, nil
	}
	at, ok := s.facAt[facRef]
	if !ok {
		off := len(s.facEntries)
		var facs []graph.FacEntry
		var err error
		if s.dec != nil {
			s.facEntries, err = s.dec.AppendFacilities(s.facEntries, facRef, count)
		} else if facs, err = s.src.Facilities(facRef, count); err == nil {
			s.facEntries = append(s.facEntries, facs...)
		}
		if err != nil {
			return nil, err
		}
		at = span{off: uint32(off), n: uint32(len(s.facEntries) - off)}
		s.facAt[facRef] = at
	}
	end := at.off + at.n
	return s.facEntries[at.off:end:end], nil
}

// FacilityEdge implements Source.
func (s *SharedSource) FacilityEdge(p graph.FacilityID) (graph.EdgeID, error) {
	at := slot(&s.facEdgeAt, int(p), s.facs)
	if at == nil {
		return s.src.FacilityEdge(p)
	}
	if at.stamp != s.gen {
		e, err := s.src.FacilityEdge(p)
		if err != nil {
			return 0, err
		}
		*at = span{stamp: s.gen, off: uint32(e)}
	}
	return graph.EdgeID(at.off), nil
}

// EdgeInfo implements Source.
func (s *SharedSource) EdgeInfo(e graph.EdgeID) (graph.EdgeInfo, error) {
	at := slot(&s.edgeAt, int(e), s.edges)
	if at == nil {
		return s.src.EdgeInfo(e)
	}
	if at.stamp != s.gen {
		info, err := s.src.EdgeInfo(e)
		if err != nil {
			return graph.EdgeInfo{}, err
		}
		*at = span{stamp: s.gen, off: uint32(len(s.infos))}
		s.infos = append(s.infos, info)
	}
	return s.infos[at.off], nil
}
