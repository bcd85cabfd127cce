package expand

import (
	"fmt"
	"math"
	"slices"

	"mcn/internal/graph"
)

// Event is the outcome of one expansion step.
type Event uint8

// Step outcomes.
const (
	// EventNode means one network node was expanded (its adjacency record
	// was consumed and its neighbours en-heaped).
	EventNode Event = iota
	// EventFacility means the next nearest facility was discovered.
	EventFacility
	// EventExhausted means the expansion has reached everything reachable.
	EventExhausted
)

// Expansion is an incremental nearest-facility search from a query location
// under a single cost type: Dijkstra network expansion that en-heaps
// facilities along traversed edges and reports them in non-decreasing cost
// order (the NE technique of Papadias et al. that the paper builds on).
//
// Facilities pop in deterministic (cost, id) order — identical across the d
// per-cost expansions of a query — which the skyline algorithms' pinning
// arguments rely on (see heap.go).
//
// Bookkeeping lives in one dense state unit drawn from the query's Scratch:
// generation-stamped arrays indexed by NodeID/FacilityID and a reusable
// heap, so the steady-state pop loop performs zero allocations and repeated
// queries reuse the same backing arrays.
type Expansion struct {
	src  Source
	cost int
	// coster overrides the adjacency entries' embedded costs when the source
	// keeps its effective costs in an overlay (see EdgeCoster).
	coster EdgeCoster
	// dec is src when it decodes records into caller memory; they are then
	// decoded into ds's buffers.
	dec decoder

	ds *denseState
	// edges bounds the edge ids adjacency records may name (the scratch's
	// source's declared id space).
	edges int

	// Shrinking-stage filters: when set, adjacency traversal skips facility
	// records of edges outside allowEdge, and only facilities passing
	// allowFac are en-heaped or reported (paper Sec. IV-A enhancements).
	allowEdge func(graph.EdgeID) bool
	allowFac  func(graph.FacilityID) bool

	// Lower-bound pruning (SetPrune): when lb is set, a popped node whose
	// key + lb.LowerBound(cost, node) the driver's prune predicate rejects is
	// settled without expansion — its adjacency record is never read.
	lb    LowerBounder
	prune func(costPlusBound float64) bool
	// interrupt, when set, is polled before every node expansion; its
	// error ends the expansion.
	interrupt func() error

	popCount    int
	nodeCount   int
	prunedCount int
}

// LowerBounder supplies per-criterion admissible lower bounds on the network
// distance from a node to the nearest facility: LowerBound(i, v) must never
// exceed dᵢ(v → p) for any facility p (the pruning index of internal/index).
// Implementations must be safe for concurrent use; expansions only read.
type LowerBounder interface {
	LowerBound(costIdx int, v graph.NodeID) float64
}

// New starts an expansion from loc under cost type costIdx (0-based) on one
// state unit of sc, which must have been acquired for src (or for the source
// sc.Shared wraps) and stays owned by the caller. interrupt, when not nil, is
// polled before every node the expansion expands — each a record read on a
// disk source — and a non-nil error from it is returned by that Step or
// Next; it must be cheap and safe for concurrent use.
func New(src Source, costIdx int, loc graph.Location, sc *Scratch, interrupt func() error) (*Expansion, error) {
	x := &Expansion{
		src:       src,
		cost:      costIdx,
		coster:    costerOf(src),
		ds:        sc.state(),
		edges:     sc.edges,
		interrupt: interrupt,
	}
	x.dec, _ = src.(decoder)

	info, err := src.EdgeInfo(loc.Edge)
	if err != nil {
		return nil, err
	}
	w := info.W[costIdx]

	// Seed the end-nodes of the query edge with their partial weights. In a
	// directed network only the forward end is reachable from q.
	if err := x.pushNode(info.V, (1-loc.T)*w); err != nil {
		return nil, err
	}
	if !src.Directed() {
		if err := x.pushNode(info.U, loc.T*w); err != nil {
			return nil, err
		}
	}

	// Facilities on the query edge are reachable directly along the edge,
	// possibly cheaper than via either end-node.
	if info.FacCount > 0 {
		facs, err := x.facilities(info.FacRef, info.FacCount)
		if err != nil {
			return nil, err
		}
		for _, fe := range facs {
			var c float64
			if src.Directed() {
				if fe.T < loc.T {
					continue // behind q on a one-way segment
				}
				c = (fe.T - loc.T) * w
			} else {
				c = math.Abs(fe.T-loc.T) * w
			}
			if err := x.pushFacility(fe.ID, c); err != nil {
				return nil, err
			}
		}
	}
	return x, nil
}

// PopCount returns the number of facilities reported so far.
func (x *Expansion) PopCount() int { return x.popCount }

// NodeCount returns the number of nodes expanded so far.
func (x *Expansion) NodeCount() int { return x.nodeCount }

// PrunedCount returns the number of node pops discarded by the SetPrune
// predicate instead of being expanded.
func (x *Expansion) PrunedCount() int { return x.prunedCount }

// SetPrune installs lower-bound node pruning: when a node v pops with key c
// and should(c + lb.LowerBound(i, v)) returns true, where i is the
// expansion's cost type, the node is settled without expanding its adjacency
// — admissible because no facility reachable through v can pop below that
// sum. Drivers install it after construction (like SetFilter) with a
// predicate that consults their current result horizon; pass nils to clear.
// Pruned pops are transparent to Step/Next (they do not produce an event)
// and are counted by PrunedCount, not NodeCount.
//
// Soundness is the driver's contract: the predicate must only reject sums
// that provably cannot lead to a result facility under the driver's own
// semantics, and must account for float summation-order slack (see
// internal/index.SlackFactor).
func (x *Expansion) SetPrune(lb LowerBounder, should func(costPlusBound float64) bool) {
	if lb == nil || should == nil {
		x.lb, x.prune = nil, nil
		return
	}
	x.lb, x.prune = lb, should
}

// SetFilter installs the shrinking-stage filters; pass nil to clear either.
// Facilities already in the heap that fail allowFac are discarded when they
// surface.
func (x *Expansion) SetFilter(allowEdge func(graph.EdgeID) bool, allowFac func(graph.FacilityID) bool) {
	x.allowEdge = allowEdge
	x.allowFac = allowFac
}

// HeadKey returns the key at the head of the expansion heap: a lower bound
// on the cost of every facility not yet reported (the tᵢ threshold of the
// paper's top-k lower-bound pruning). It is +Inf once the expansion is
// exhausted, since anything unseen is unreachable under this cost type.
func (x *Expansion) HeadKey() float64 {
	if it, ok := x.ds.heap.peek(); ok {
		return it.key
	}
	return math.Inf(1)
}

// Distances writes the cost from the query location to every node into dst
// (reusing its backing array when large enough), indexed by NodeID: a settled
// node's final Dijkstra key, +Inf for every other node. Once the expansion is
// exhausted that is the complete single-cost distance table. It spans the
// state's node id space — the declared one of a Sized source, the ids met so
// far otherwise — so an id past its end is one the search never reached.
func (x *Expansion) Distances(dst []float64) []float64 {
	ds := x.ds
	dst = slices.Grow(dst[:0], len(ds.nodes.m))[:len(ds.nodes.m)]
	for v, m := range ds.nodes.m {
		if m.done == ds.gen {
			dst[v] = m.best
		} else {
			dst[v] = math.Inf(1)
		}
	}
	return dst
}

func (x *Expansion) pushNode(v graph.NodeID, key float64) error {
	return x.ds.push(&x.ds.nodes, uint32(v), key)
}

func (x *Expansion) pushFacility(p graph.FacilityID, key float64) error {
	return x.ds.push(&x.ds.facs, uint32(p), key)
}

// Step advances the expansion by one event: it expands one node (EventNode),
// reports the next nearest facility (EventFacility, with its id and cost),
// or reports exhaustion. Stale heap entries are skipped transparently.
func (x *Expansion) Step() (Event, graph.FacilityID, float64, error) {
	ds := x.ds
	for {
		it, ok := ds.heap.pop()
		if !ok {
			return EventExhausted, 0, 0, nil
		}
		if it.kind() == kindNode {
			if ds.stale(&ds.nodes, it) {
				continue
			}
			v := graph.NodeID(it.id)
			// Settled from here on: any later path to v is no cheaper.
			ds.nodes.m[v].done = ds.gen
			if x.prune != nil && x.prune(it.key+x.lb.LowerBound(x.cost, v)) {
				// Settle without expanding; the discard stays valid even as
				// the driver's horizon tightens further.
				x.prunedCount++
				continue
			}
			if x.interrupt != nil {
				if err := x.interrupt(); err != nil {
					return 0, 0, 0, err
				}
			}
			if err := x.expandNode(v, it.key); err != nil {
				return 0, 0, 0, err
			}
			return EventNode, 0, it.key, nil
		}
		if ds.stale(&ds.facs, it) {
			continue
		}
		p := graph.FacilityID(it.id)
		// Reported, or left over from before the filter was installed; either
		// way it must not surface again.
		ds.facs.m[p].done = ds.gen
		if x.allowFac != nil && !x.allowFac(p) {
			continue
		}
		x.popCount++
		return EventFacility, p, it.key, nil
	}
}

func (x *Expansion) expandNode(v graph.NodeID, key float64) error {
	x.nodeCount++
	entries, err := x.adjacency(v)
	if err != nil {
		return err
	}
	for i := range entries {
		e := &entries[i]
		if int(e.Edge) >= x.edges {
			return fmt.Errorf("expand: edge %d out of range", e.Edge)
		}
		var w float64
		if x.coster != nil {
			w = x.coster.EdgeCost(e.Edge, x.cost)
		} else {
			w = e.W[x.cost]
		}
		if err := x.pushNode(e.Neighbor, key+w); err != nil {
			return err
		}
		if e.FacCount == 0 {
			continue
		}
		if x.allowEdge != nil && !x.allowEdge(e.Edge) {
			continue // shrinking stage: skip non-candidate facility records
		}
		facs, err := x.facilities(e.FacRef, e.FacCount)
		if err != nil {
			return err
		}
		for _, fe := range facs {
			if x.allowFac != nil && !x.allowFac(fe.ID) {
				continue
			}
			partial := graph.PartialFrom(e.Forward, fe.T)
			if err := x.pushFacility(fe.ID, key+partial*w); err != nil {
				return err
			}
		}
	}
	return nil
}

// adjacency returns the arcs of v; from a decoder, decoded into the state
// unit's buffers and valid until the next call.
func (x *Expansion) adjacency(v graph.NodeID) ([]graph.AdjEntry, error) {
	if x.dec == nil {
		return x.src.Adjacency(v)
	}
	var err error
	x.ds.adj, x.ds.costs, err = x.dec.AppendAdjacency(x.ds.adj[:0], x.ds.costs[:0], v)
	return x.ds.adj, err
}

// facilities is adjacency's counterpart for facility records.
func (x *Expansion) facilities(facRef uint64, count int) ([]graph.FacEntry, error) {
	if x.dec == nil {
		return x.src.Facilities(facRef, count)
	}
	var err error
	x.ds.recs, err = x.dec.AppendFacilities(x.ds.recs[:0], facRef, count)
	return x.ds.recs, err
}

// Next advances until the next nearest facility is found. ok is false when
// the network is exhausted.
func (x *Expansion) Next() (p graph.FacilityID, cost float64, ok bool, err error) {
	for {
		ev, fac, c, err := x.Step()
		if err != nil {
			return 0, 0, false, err
		}
		switch ev {
		case EventFacility:
			return fac, c, true, nil
		case EventExhausted:
			return 0, 0, false, nil
		}
	}
}
