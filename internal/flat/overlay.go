// Overlay separates immutable topology from mutable metric, the way
// customizable route planning (CRP) separates its preprocessing phases: one
// CSR compilation of the network's adjacency, facility and edge-record
// arrays is shared by any number of cost intervals, each holding only a
// dense cost matrix of |E|·d float64s. This is the fast path for
// time-dependent preference queries: where the snapshot path rebuilds a
// graph.Graph (nodes, edges, facility indexes) for every interval it
// touches, an overlay resolves an interval to a prebuilt View with one
// pointer read — no rebuild, no allocation — and every View serves the same
// zero-copy CSR rows through the expand.Source seam.
package flat

import (
	"fmt"
	"slices"

	"mcn/internal/graph"
	"mcn/internal/vec"
)

// Overlay is one compiled CSR topology shared by K per-interval cost
// vectors. It is immutable once built and safe for any number of concurrent
// readers; distinct intervals may be queried concurrently. WithEdge derives
// a successor without touching it.
type Overlay struct {
	base  *Source
	views []View
}

// View binds the shared topology to one interval's cost vector: an
// expand.Source whose adjacency rows are the overlay's shared zero-copy
// slices and whose cost lookups index the interval's matrix (it implements
// expand.EdgeCoster). The AdjEntry rows returned by Adjacency carry the
// base compilation's W slices, which expansions ignore in favour of
// EdgeCost; EdgeInfo, by contrast, is patched to the interval's costs, so
// query seeding and point probes see the effective metric.
type View struct {
	base *Source
	d    int
	// costs holds edge e's effective vector at costs[e*d : (e+1)*d].
	costs []float64
}

// NewOverlay attaches intervals cost vectors to the compiled topology src:
// costsAt(k, e) must return edge e's effective cost vector during interval k
// (it may return shared slices; NewOverlay copies). Every vector must have
// src.D() components, all known and non-negative. src is shared, not
// copied, so any number of overlays can be built over one compilation.
func NewOverlay(src *Source, intervals int, costsAt func(interval int, e graph.EdgeID) vec.Costs) (*Overlay, error) {
	if intervals < 1 {
		return nil, fmt.Errorf("flat: overlay needs at least one interval, got %d", intervals)
	}
	o := &Overlay{base: src, views: make([]View, intervals)}
	d, e := src.D(), src.NumEdges()
	for k := range o.views {
		m := make([]float64, e*d)
		for i := 0; i < e; i++ {
			w := costsAt(k, graph.EdgeID(i))
			if len(w) != d {
				return nil, fmt.Errorf("flat: interval %d edge %d: %d cost components, want %d", k, i, len(w), d)
			}
			if err := w.Validate(); err != nil {
				return nil, fmt.Errorf("flat: interval %d edge %d: %w", k, i, err)
			}
			if !w.Complete() {
				return nil, fmt.Errorf("flat: interval %d edge %d: unknown cost component", k, i)
			}
			copy(m[i*d:(i+1)*d], w)
		}
		o.views[k] = View{base: src, d: d, costs: m}
	}
	return o, nil
}

// WithEdge derives the overlay in which edge e costs costsAt(k) during
// interval k and every other edge keeps its cost; e must be in range and
// every vector one NewOverlay would accept. Only the intervals where e's
// vector actually changes get a copy of their matrix, patched at e's d
// slots; every other interval shares o's matrix. o itself is untouched, so
// readers of o never observe the edit. changed lists the patched intervals
// in ascending order.
func (o *Overlay) WithEdge(e graph.EdgeID, costsAt func(interval int) vec.Costs) (next *Overlay, changed []int) {
	next = &Overlay{base: o.base, views: slices.Clone(o.views)}
	for k := range next.views {
		v := &next.views[k]
		w, i := costsAt(k), int(e)*v.d
		if vec.Costs(v.costs[i : i+v.d]).Equal(w) {
			continue
		}
		v.costs = slices.Clone(v.costs)
		copy(v.costs[i:i+v.d], w)
		changed = append(changed, k)
	}
	return next, changed
}

// Base returns the shared CSR compilation (base-interval costs).
func (o *Overlay) Base() *Source { return o.base }

// NumIntervals returns the number of compiled cost intervals.
func (o *Overlay) NumIntervals() int { return len(o.views) }

// Interval returns the prebuilt View of interval k. Switching intervals is
// this pointer read; the View is shared and must be treated as read-only.
func (o *Overlay) Interval(k int) *View {
	return &o.views[k]
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
// type costIdx during this view's interval. One multiply-add index into the
// interval matrix — the pointer-swap half of the overlay contract.
func (v *View) EdgeCost(e graph.EdgeID, costIdx int) float64 {
	return v.costs[int(e)*v.d+costIdx]
}

// EdgeCosts returns edge e's effective cost vector as a read-only view into
// the interval matrix.
func (v *View) EdgeCosts(e graph.EdgeID) (vec.Costs, error) {
	if int(e) >= v.base.NumEdges() {
		return nil, fmt.Errorf("flat: edge %d out of range", e)
	}
	i := int(e) * v.d
	return vec.Costs(v.costs[i : i+v.d : i+v.d]), nil
}

// Adjacency implements expand.Source. The returned rows are the topology
// compilation's shared slices; their W fields hold base-interval costs and
// are superseded by EdgeCost (expansions consult it whenever the source
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

// EdgeInfo implements expand.Source, with W patched to this interval's
// effective costs (the record is returned by value, so the shared edge
// table is untouched and the call stays allocation-free).
func (v *View) EdgeInfo(e graph.EdgeID) (graph.EdgeInfo, error) {
	info, err := v.base.EdgeInfo(e)
	if err != nil {
		return graph.EdgeInfo{}, err
	}
	i := int(e) * v.d
	info.W = vec.Costs(v.costs[i : i+v.d : i+v.d])
	return info, nil
}
