// Package dynamic implements the paper's first future-work item (Sec. VII):
// incrementally maintaining the skyline and top-k sets of a fixed query
// location while facilities are inserted and deleted.
//
// A Maintainer materialises its state once: d complete expansions from the
// query location, which yield the cost vector of every initial facility and,
// because they settle every reachable node, the location's distance to every
// node under every cost type. Facility updates never change the network, so
// those distances stay exact for the Maintainer's whole life. An insertion
// costs one edge lookup and O(d) arithmetic on them; a deletion drops one
// entry. Neither traverses the network; reads run a dominance pass (or a
// scoring sort) over the maintained vectors.
package dynamic

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// ErrClosed is returned by Insert after the Maintainer was closed.
var ErrClosed = errors.New("dynamic: maintainer closed")

// Handle identifies a facility managed by a Maintainer. Handles of the
// initial facilities equal their graph FacilityIDs; inserted facilities get
// fresh handles beyond them.
type Handle uint64

// Entry is a maintained facility with its materialised cost vector.
type Entry struct {
	Handle Handle
	Edge   graph.EdgeID
	T      float64
	Costs  vec.Costs
}

// Maintainer keeps the preference-query state of one query location while
// the facility set changes. It holds the location's node distances (d·|V|
// float64) and nothing pooled. Insert/Delete/Skyline/TopK are
// single-goroutine, but Close is safe from any goroutine, any number of
// times. After Close, Insert fails with ErrClosed; the maintained entries
// remain readable.
type Maintainer struct {
	src expand.Source
	loc graph.Location
	// dist[i][v] is the cost-i distance from loc to node v, +Inf where
	// unreachable; an id past the end of a row is unreachable too.
	dist [][]float64
	next Handle
	facs map[Handle]*Entry

	closed atomic.Bool
	// onUpdate, when set, observes every successful facility mutation with
	// the edge it touched; the facade points it at the result cache's
	// edge-tag invalidation so live updates kill exactly the cached entries
	// that depend on the touched edge.
	onUpdate func(graph.EdgeID)
}

// New materialises the initial state for query location loc. The source's
// existing facilities seed the maintained set; facilities reachable under no
// cost type are excluded (they can never enter any preference result). Only
// opt.Interrupt is consulted.
func New(src expand.Source, loc graph.Location, opt core.Options) (*Maintainer, error) {
	m := &Maintainer{src: src, loc: loc, dist: make([][]float64, src.D())}
	vectors, err := m.materialize(opt)
	if err != nil {
		return nil, err
	}
	m.facs = make(map[Handle]*Entry, len(vectors))
	// Ascending ids, not map order: the reads below reach the store, and
	// their order decides which pages a buffer pool keeps.
	for _, id := range slices.Sorted(maps.Keys(vectors)) {
		e, err := src.FacilityEdge(id)
		if err != nil {
			return nil, err
		}
		t, err := facilityFraction(src, e, id)
		if err != nil {
			return nil, err
		}
		m.facs[Handle(id)] = &Entry{Handle: Handle(id), Edge: e, T: t, Costs: vectors[id]}
		m.next = Handle(id) + 1
	}
	return m, nil
}

// materialize runs core.MaterializeAll's d complete expansions from m.loc,
// polling opt.Interrupt per pop, and keeps each one's node distances in
// m.dist. It returns the cost vector of every facility reachable under some
// cost type, +Inf in the components it is unreachable under.
func (m *Maintainer) materialize(opt core.Options) (map[graph.FacilityID]vec.Costs, error) {
	vectors := make(map[graph.FacilityID]vec.Costs)
	sc := expand.Acquire(m.src)
	defer sc.Release()
	for i := range m.dist {
		x, err := expand.New(m.src, i, m.loc, sc)
		if err != nil {
			return nil, err
		}
		for {
			if opt.Interrupt != nil {
				if err := opt.Interrupt(); err != nil {
					return nil, err
				}
			}
			p, c, ok, err := x.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			v := vectors[p]
			if v == nil {
				v = make(vec.Costs, len(m.dist))
				for j := range v {
					v[j] = math.Inf(1)
				}
				vectors[p] = v
			}
			v[i] = c
		}
		m.dist[i] = x.Distances(nil)
	}
	return vectors, nil
}

// facilityFraction recovers a facility's position on its edge from the
// edge's facility record.
func facilityFraction(src expand.Source, e graph.EdgeID, id graph.FacilityID) (float64, error) {
	info, err := src.EdgeInfo(e)
	if err != nil {
		return 0, err
	}
	facs, err := src.Facilities(info.FacRef, info.FacCount)
	if err != nil {
		return 0, err
	}
	for _, fe := range facs {
		if fe.ID == id {
			return fe.T, nil
		}
	}
	return 0, fmt.Errorf("dynamic: facility %d not found on its edge %d", id, e)
}

// SetOnUpdate registers fn to observe every successful Insert and Delete
// with the edge the mutation touched. It must be called before the
// maintainer is used; the facade wires it to result-cache invalidation.
func (m *Maintainer) SetOnUpdate(fn func(graph.EdgeID)) { m.onUpdate = fn }

// Close marks the maintainer closed, so that later Inserts fail with
// ErrClosed. It is idempotent and safe for concurrent use.
func (m *Maintainer) Close() error {
	m.closed.Store(true)
	return nil
}

// Len returns the number of maintained facilities.
func (m *Maintainer) Len() int { return len(m.facs) }

// Insert adds a facility at fraction t on edge e and returns its handle. Its
// cost vector is what an expansion would report for a facility there — the
// cheaper of entering e from either end-node, or walking along the query
// edge when e is that edge — evaluated on the maintained node distances, so
// an insert reads one edge record and traverses nothing.
func (m *Maintainer) Insert(e graph.EdgeID, t float64) (Handle, error) {
	if m.closed.Load() {
		return 0, ErrClosed
	}
	if !(t >= 0 && t <= 1) { // false for NaN as well
		return 0, fmt.Errorf("dynamic: fraction %g outside [0,1]", t)
	}
	info, err := m.src.EdgeInfo(e)
	if err != nil {
		return 0, err
	}
	directed := m.src.Directed()
	costs := make(vec.Costs, len(m.dist))
	for i, dist := range m.dist {
		w := info.W[i]
		c := at(dist, info.U) + t*w
		if !directed {
			c = math.Min(c, at(dist, info.V)+(1-t)*w)
		}
		if e == m.loc.Edge {
			if !directed {
				c = math.Min(c, math.Abs(t-m.loc.T)*w)
			} else if t >= m.loc.T { // behind q on a one-way edge otherwise
				c = math.Min(c, (t-m.loc.T)*w)
			}
		}
		costs[i] = c
	}
	h := m.next
	m.next++
	m.facs[h] = &Entry{Handle: h, Edge: e, T: t, Costs: costs}
	if m.onUpdate != nil {
		m.onUpdate(e)
	}
	return h, nil
}

// at reads node v's distance from one row of Maintainer.dist.
func at(dist []float64, v graph.NodeID) float64 {
	if int(v) < len(dist) {
		return dist[v]
	}
	return math.Inf(1)
}

// Delete removes a maintained facility.
func (m *Maintainer) Delete(h Handle) error {
	e, ok := m.facs[h]
	if !ok {
		return fmt.Errorf("dynamic: unknown facility handle %d", h)
	}
	delete(m.facs, h)
	if m.onUpdate != nil {
		m.onUpdate(e.Edge)
	}
	return nil
}

// Entry returns the maintained record for h.
func (m *Maintainer) Entry(h Handle) (Entry, bool) {
	e, ok := m.facs[h]
	if !ok {
		return Entry{}, false
	}
	out := *e
	out.Costs = e.Costs.Clone()
	return out, true
}

// ordered returns maintained entries sorted by handle.
func (m *Maintainer) ordered() []*Entry {
	out := make([]*Entry, 0, len(m.facs))
	for _, e := range m.facs {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Handle < out[j].Handle })
	return out
}

// Skyline returns the current skyline over the maintained facilities,
// sorted by handle.
func (m *Maintainer) Skyline() []Entry {
	entries := m.ordered()
	items := make([]vec.Costs, len(entries))
	for i, e := range entries {
		items[i] = e.Costs
	}
	var out []Entry
	for _, idx := range core.BNL(items) {
		e := *entries[idx]
		e.Costs = entries[idx].Costs.Clone()
		out = append(out, e)
	}
	return out
}

// TopK returns the k best maintained facilities under agg, ascending score.
func (m *Maintainer) TopK(agg vec.Aggregate, k int) ([]Entry, []float64, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("dynamic: top-k requires k >= 1, got %d", k)
	}
	entries := m.ordered()
	scores := make([]float64, len(entries))
	order := make([]int, len(entries))
	for i, e := range entries {
		scores[i] = agg.Score(e.Costs)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] < scores[order[b]]
		}
		return entries[order[a]].Handle < entries[order[b]].Handle
	})
	if k > len(order) {
		k = len(order)
	}
	outE := make([]Entry, k)
	outS := make([]float64, k)
	for i := 0; i < k; i++ {
		e := *entries[order[i]]
		e.Costs = entries[order[i]].Costs.Clone()
		outE[i] = e
		outS[i] = scores[order[i]]
	}
	return outE, outS, nil
}
