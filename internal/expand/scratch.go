package expand

import (
	"fmt"
	"math"
	"sync"

	"mcn/internal/graph"
)

// Sized is implemented by sources whose node, edge and facility identifier
// spaces are dense [0, N) ranges of known size — the in-memory CSR networks
// and the paper's disk store, whose record ids are builder order. A scratch
// acquired for a Sized source is allocated at that size up front and treats
// any id a record names beyond it as an error; for any other source the
// state arrays start empty and grow with the ids the search meets.
type Sized interface {
	Source
	NumNodes() int
	NumEdges() int
	NumFacilities() int
}

// ZeroCopy is implemented by sources whose Adjacency and Facilities calls
// return shared read-only slices at no per-call cost. For such sources CEA's
// per-query record memo saves nothing — there is no underlying fetch to
// amortise — so the engine layer skips the SharedSource wrapper entirely.
type ZeroCopy interface {
	ZeroCopyRecords() bool
}

// unbounded is the id-space limit of a source that does not declare one.
const unbounded = math.MaxInt

// fit re-slices an id-indexed array for a new generation under the given id
// bound: a declared id space is allocated in full, so in the search loop one
// length check both validates and bounds an id; an undeclared one re-opens
// whatever earlier searches already grew. Entries that come back into view
// carry stamps of older generations, which read as unset.
func fit[T any](s []T, limit int) []T {
	switch {
	case limit == unbounded:
		return s[:cap(s)]
	case limit <= cap(s):
		return s[:limit]
	default:
		return make([]T, limit)
	}
}

// grown returns s reallocated so that id < limit is addressable, at least
// doubling so that growth is amortised.
func grown[T any](s []T, id, limit int) []T {
	out := make([]T, min(max(id+1, 2*len(s), 64), limit))
	copy(out, s)
	return out
}

// mark is the Dijkstra bookkeeping of one node or facility: its best-known
// cost and two generation stamps. A stamp equal to the owning state's
// current generation means "this search"; anything else is stale.
type mark struct {
	best float64 // tentative cost; valid where seen == gen
	seen uint32  // en-heaped this generation
	done uint32  // node settled / facility reported or filter-discarded
}

// marks is the mark array of one id space (nodes or facilities) with the
// bound on the ids it accepts.
type marks struct {
	m     []mark
	limit int
	kind  itemKind
}

// denseState is the array-backed Dijkstra state of one Expansion, indexed
// directly by NodeID / FacilityID, plus a reusable heap. A generation stamp
// makes reuse O(1): bumping gen logically clears every mark without touching
// the arrays, so repeated queries never re-make or zero their state.
type denseState struct {
	gen   uint32
	nodes marks
	facs  marks
	heap  minHeap // backing array grown once and reused across queries
}

// push en-heaps id with tentative cost key unless this generation already
// finished it or knows a cost at least as good. An id beyond the array grows
// it, or fails the search when the source declared an id space without it.
func (s *denseState) push(a *marks, id uint32, key float64) error {
	if int(id) >= len(a.m) {
		if int(id) >= a.limit {
			return fmt.Errorf("expand: %v %d out of range", a.kind, id)
		}
		a.m = grown(a.m, int(id), a.limit)
	}
	m := &a.m[id]
	if m.done == s.gen || (m.seen == s.gen && m.best <= key) {
		return nil
	}
	m.seen, m.best = s.gen, key
	s.heap.push(item{key: key, kind: a.kind, id: id})
	return nil
}

// stale reports whether a popped heap entry is obsolete: its id is finished,
// or a cheaper entry for it was pushed later.
func (s *denseState) stale(a *marks, it item) bool {
	m := &a.m[it.id]
	return m.done == s.gen || m.best < it.key
}

// bump starts a fresh logical generation. On the (rare) wrap-around to zero
// the stamps are cleared for real — over the whole capacity, since a later
// fit re-opens entries beyond the current length — because zero is their
// initial value and would otherwise read as "seen".
func (s *denseState) bump() {
	s.gen++
	if s.gen == 0 {
		clear(s.nodes.m[:cap(s.nodes.m)])
		clear(s.facs.m[:cap(s.facs.m)])
		s.gen = 1
	}
}

// EdgeSet is a dense epoch-stamped edge membership set drawn from a Scratch:
// the shrinking-stage filters use it, so installing filters allocates nothing
// once the scratch is warm. Clearing is O(1) — a generation bump invalidates
// every stamp.
type EdgeSet struct {
	stamp []uint32
	gen   uint32
	limit int
}

// Add inserts e into the set, growing it on demand; an edge id outside the
// id space the scratch's source declared is an error.
func (s *EdgeSet) Add(e graph.EdgeID) error {
	if int(e) >= len(s.stamp) {
		if int(e) >= s.limit {
			return fmt.Errorf("expand: edge %d out of range", e)
		}
		s.stamp = grown(s.stamp, int(e), s.limit)
	}
	s.stamp[e] = s.gen
	return nil
}

// Has reports membership of e.
func (s *EdgeSet) Has(e graph.EdgeID) bool {
	return int(e) < len(s.stamp) && s.stamp[e] == s.gen
}

// reset logically empties the set, clearing for real (whole capacity, as in
// denseState.bump) only on stamp wrap-around.
func (s *EdgeSet) reset() {
	s.gen++
	if s.gen == 0 {
		clear(s.stamp[:cap(s.stamp)])
		s.gen = 1
	}
}

// Scratch is the reusable expansion state of one query at a time: each
// expansion the query starts (d per-cost expansions, or one per source
// location for multi-source queries) draws one dense state unit from it, and
// the query's shrinking stage draws its edge filter set. Every query runs on
// one: Acquire it for the query's source, Release it when the query is over.
// A Scratch must not be shared by concurrent queries.
type Scratch struct {
	// Id-space bounds of the source the scratch is currently acquired for.
	nodes, edges, facs int
	states             []*denseState
	next               int
	edgeSet            EdgeSet
}

// scratchPool recycles scratches across queries, sources and owners: the
// arrays are re-fitted to each query's source, so one pool serves them all,
// and idle scratches are reclaimed under memory pressure.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Acquire obtains the expansion state for one query over src. The caller
// owns it until Release.
func Acquire(src Source) *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.bind(src)
	return s
}

// Release returns the scratch for reuse by a later query. No expansion
// started on it may be advanced afterwards.
func (s *Scratch) Release() {
	s.reset()
	scratchPool.Put(s)
}

// bind sets the id-space bounds that state units drawn from now on are
// fitted to.
func (s *Scratch) bind(src Source) {
	s.nodes, s.edges, s.facs = unbounded, unbounded, unbounded
	if sz, ok := src.(Sized); ok {
		s.nodes, s.edges, s.facs = sz.NumNodes(), sz.NumEdges(), sz.NumFacilities()
	}
}

// state hands out the next free dense state unit, allocating one the first
// time a query needs more expansions than any previous user of this scratch.
func (s *Scratch) state() *denseState {
	if s.next == len(s.states) {
		ds := &denseState{}
		ds.nodes.kind, ds.facs.kind = kindNode, kindFacility
		s.states = append(s.states, ds)
	}
	ds := s.states[s.next]
	s.next++
	ds.nodes.m, ds.nodes.limit = fit(ds.nodes.m, s.nodes), s.nodes
	ds.facs.m, ds.facs.limit = fit(ds.facs.m, s.facs), s.facs
	ds.heap.a = ds.heap.a[:0]
	ds.bump()
	return ds
}

// EdgeSet returns the scratch's edge set, emptied for reuse. At most one
// edge set is live per query — the shrinking-stage filter — so the scratch
// holds a single stamped array.
func (s *Scratch) EdgeSet() *EdgeSet {
	es := &s.edgeSet
	es.stamp, es.limit = fit(es.stamp, s.edges), s.edges
	es.reset()
	return es
}

// reset makes every state unit available again. The backing arrays are kept;
// generation stamps invalidate the old contents.
func (s *Scratch) reset() { s.next = 0 }
