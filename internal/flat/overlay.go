// Overlay separates immutable topology from mutable metric, the way
// customizable route planning (CRP) separates its preprocessing phases: one
// CSR compilation plus one base cost matrix of |E|·d float64s, shared by
// every cost configuration. A configuration stores only its profiled edges:
// each carries its breakpoints and one precomputed cost row per segment
// (Rows), so memory is O(|E|·d + Σ segments·d) however many distinct
// instants the profiles use. This is the fast path for time-dependent
// queries: a View binds the shared arrays to one configuration at one
// instant — no graph rebuild, no allocation — and serves the same zero-copy
// CSR rows through the expand.Source seam.
package flat

import (
	"fmt"
	"slices"
	"sort"

	"mcn/internal/graph"
	"mcn/internal/vec"
)

// Overlay is one compiled CSR topology and its base cost matrix. It is
// immutable once built and safe for any number of concurrent readers.
type Overlay struct {
	base *Source
	d    int
	// costs holds edge e's base vector at costs[e*d : (e+1)*d].
	costs []float64
}

// Rows is one profiled edge's piecewise-constant cost: from times[j] until
// times[j+1] (the last until +Inf) the edge costs costs[j*d : (j+1)*d];
// before times[0] its base row applies. Rows are immutable, so any number
// of configurations share them.
type Rows struct {
	times []float64
	costs []float64
}

// View binds the shared topology and base matrix to one configuration's
// rows at one instant: an expand.Source whose cost lookups read a profiled
// edge's segment in effect at the instant, else the base row (it implements
// expand.EdgeCoster). The AdjEntry rows returned by Adjacency carry the base
// W slices, which expansions ignore in favour of EdgeCost; EdgeInfo is
// patched to the effective costs, so query seeding sees the effective metric.
// A view given a read set (Track) records the profiled edges it serves.
type View struct {
	base  *Source
	d     int
	costs []float64
	// rows is indexed by edge id; nil means the edge is unprofiled.
	rows  []*Rows
	at    float64
	reads *Reads // nil unless Track was called
}

// Reads is the set of profiled edges a tracked view's queries read, in
// first-read order, deduplicated by generation-stamped marks per edge id
// (emptied in O(1), like expand.EdgeSet), so a warm one allocates nothing.
// Unprofiled edges cost the same at every instant and are never recorded.
type Reads struct {
	stamp []uint32
	gen   uint32
	edges []graph.EdgeID
}

// NewOverlay copies src's edge costs into the base matrix. src is shared,
// not copied, so any number of overlays can be built over one compilation.
func NewOverlay(src *Source) *Overlay {
	o := &Overlay{base: src, d: src.D(), costs: make([]float64, 0, src.NumEdges()*src.D())}
	for _, info := range src.edges {
		o.costs = append(o.costs, info.W...)
	}
	return o
}

// NewRows builds an edge's rows from its ascending breakpoints and one cost
// vector per segment, laid out back to back in costs; both are shared, not
// copied. Every vector must have Base().D() components, all known and
// non-negative.
func (o *Overlay) NewRows(times, costs []float64) (*Rows, error) {
	if len(times) == 0 || len(costs) != len(times)*o.d {
		return nil, fmt.Errorf("flat: %d breakpoints but %d cost components, want %d per breakpoint", len(times), len(costs), o.d)
	}
	for j := range times {
		w := vec.Costs(costs[j*o.d : (j+1)*o.d])
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("flat: row %d: %w", j, err)
		}
		if !w.Complete() {
			return nil, fmt.Errorf("flat: row %d: unknown cost component", j)
		}
	}
	return &Rows{times: times, costs: costs}, nil
}

// Base returns the shared CSR compilation (base costs).
func (o *Overlay) Base() *Source { return o.base }

// View returns the source in effect at instant at under the configuration
// rows, indexed by edge id with nil for unprofiled edges; rows must have
// NumEdges entries and is shared, not copied.
func (o *Overlay) View(rows []*Rows, at float64) View {
	return View{base: o.base, d: o.d, costs: o.costs, rows: rows, at: at}
}

// Track empties r and makes it record every profiled edge the view's cost
// lookups read from now on.
func (v *View) Track(r *Reads) {
	if r.gen++; r.gen == 0 || len(r.stamp) < v.NumEdges() { // wrap-around or first use
		r.stamp, r.gen = make([]uint32, v.NumEdges()), 1
	}
	r.edges = r.edges[:0]
	v.reads = r
}

// Unchanged reports whether every profiled edge the tracked view read costs
// the same at instant at as at the view's own. A query is a deterministic
// function of the costs it reads (topology and facilities are time-invariant),
// so re-run at at it would make the same reads and return the same result.
func (v *View) Unchanged(at float64) bool {
	was, now := *v, *v
	was.reads, now.reads, now.at = nil, nil, at
	for _, e := range v.reads.edges {
		if !slices.Equal(was.row(e), now.row(e)) {
			return false
		}
	}
	return true
}

// row returns edge e's effective cost vector at the view's instant: the
// profiled edge's segment from the last breakpoint at or before it, else the
// base row. A tracked view records a profiled edge's read.
func (v *View) row(e graph.EdgeID) []float64 {
	if r := v.rows[e]; r != nil {
		if v.reads != nil && v.reads.stamp[e] != v.reads.gen {
			v.reads.stamp[e] = v.reads.gen
			v.reads.edges = append(v.reads.edges, e)
		}
		j := sort.SearchFloat64s(r.times, v.at)
		if j == len(r.times) || r.times[j] != v.at {
			j--
		}
		if j >= 0 {
			return r.costs[j*v.d : (j+1)*v.d : (j+1)*v.d]
		}
	}
	i := int(e) * v.d
	return v.costs[i : i+v.d : i+v.d]
}

// D implements expand.Source.
func (v *View) D() int { return v.d }

// Directed implements expand.Source.
func (v *View) Directed() bool { return v.base.Directed() }

// NumNodes implements expand.Sized.
func (v *View) NumNodes() int { return v.base.NumNodes() }

// NumEdges returns the edge count.
func (v *View) NumEdges() int { return v.base.NumEdges() }

// NumFacilities implements expand.Sized.
func (v *View) NumFacilities() int { return v.base.NumFacilities() }

// ZeroCopyRecords implements expand.ZeroCopy: every record request is a
// shared sub-slice of the one compiled topology.
func (v *View) ZeroCopyRecords() bool { return true }

// EdgeCost implements expand.EdgeCoster: edge e's effective cost under cost
// type costIdx at this view's instant. An unprofiled edge costs one
// multiply-add index into the base matrix.
func (v *View) EdgeCost(e graph.EdgeID, costIdx int) float64 {
	if v.rows[e] == nil {
		return v.costs[int(e)*v.d+costIdx]
	}
	return v.row(e)[costIdx]
}

// Adjacency implements expand.Source. The returned rows are the topology
// compilation's shared slices; their W fields hold base costs and are
// superseded by EdgeCost (expansions consult it whenever the source
// implements expand.EdgeCoster).
func (v *View) Adjacency(n graph.NodeID) ([]graph.AdjEntry, error) {
	return v.base.Adjacency(n)
}

// Facilities implements expand.Source; facility records are time-invariant.
func (v *View) Facilities(facRef uint64, count int) ([]graph.FacEntry, error) {
	return v.base.Facilities(facRef, count)
}

// FacilityEdge implements expand.Source.
func (v *View) FacilityEdge(p graph.FacilityID) (graph.EdgeID, error) {
	return v.base.FacilityEdge(p)
}

// EdgeInfo implements expand.Source, with W patched to the effective costs:
// a read-only view into the base matrix or the edge's rows (the record is
// returned by value, so the shared edge table is untouched and the call
// stays allocation-free).
func (v *View) EdgeInfo(e graph.EdgeID) (graph.EdgeInfo, error) {
	info, err := v.base.EdgeInfo(e)
	if err != nil {
		return graph.EdgeInfo{}, err
	}
	info.W = v.row(e)
	return info, nil
}
