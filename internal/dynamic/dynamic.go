// Package dynamic implements the paper's first future-work item (Sec. VII):
// incrementally maintaining the skyline and top-k sets of a fixed query
// location while facilities are inserted and deleted.
//
// A Maintainer materialises the cost vectors of the initial facilities once
// (d complete expansions), then serves updates cheaply: an insertion costs d
// early-terminating point probes (the new facility's edge end-nodes) plus an
// O(|P|) dominance pass, and a deletion costs a recomputation over the
// already-materialised vectors only — no network traversal at all.
package dynamic

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/skyline"
	"mcn/internal/vec"
)

// ErrClosed is returned by operations that need the network after the
// Maintainer was closed.
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
// the facility set changes. It holds pooled expansion scratch for its
// insertion probes; callers must Close it when done. Insert/Delete/Skyline/
// TopK are single-goroutine, but Close is safe from any goroutine, any
// number of times — it waits for an in-flight Insert probe to finish and
// releases the scratch exactly once, so it is never handed back to the pool
// mid-probe. After Close, Insert (which needs the scratch for network
// probes) fails with ErrClosed; the already-materialised entries remain
// readable.
type Maintainer struct {
	src     expand.Source
	loc     graph.Location
	next    Handle
	facs    map[Handle]*Entry
	scratch *expand.Scratch

	closed    atomic.Bool
	closeOnce sync.Once
	// onUpdate, when set, observes every successful facility mutation with
	// the edge it touched; the facade points it at the result cache's
	// edge-tag invalidation so live updates kill exactly the cached entries
	// that depend on the touched edge.
	onUpdate func(graph.EdgeID)
	// mu serialises Insert's scratch-backed probes against the releasing
	// half of Close.
	mu sync.Mutex
}

// New materialises the initial state for query location loc. The source's
// existing facilities seed the maintained set; facilities reachable under no
// cost type are excluded (they can never enter any preference result). Only
// opt.Interrupt is consulted.
func New(src expand.Source, loc graph.Location, opt core.Options) (*Maintainer, error) {
	vectors, _, err := core.MaterializeAll(src, loc, opt)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{
		src:  src,
		loc:  loc,
		facs: make(map[Handle]*Entry, len(vectors)),
	}
	// Ascending ids, not map order: the reads below reach the store, and
	// their order decides which pages a buffer pool keeps.
	for _, id := range slices.Sorted(maps.Keys(vectors)) {
		costs := vectors[id]
		e, err := src.FacilityEdge(id)
		if err != nil {
			return nil, err
		}
		t, err := facilityFraction(src, e, id)
		if err != nil {
			return nil, err
		}
		m.facs[Handle(id)] = &Entry{Handle: Handle(id), Edge: e, T: t, Costs: costs}
		m.next = Handle(id) + 1
	}
	m.scratch = expand.Acquire(src) // for the insertion probes, until Close
	return m, nil
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

// Close releases the maintainer's scratch. It is idempotent and safe for
// concurrent use; the release happens exactly once, and never while an
// Insert probe is still running on the scratch.
func (m *Maintainer) Close() error {
	m.closed.Store(true)
	m.closeOnce.Do(func() {
		m.mu.Lock() // drain an in-flight Insert before releasing its scratch
		defer m.mu.Unlock()
		m.scratch.Release()
		m.scratch = nil
	})
	return nil
}

// Len returns the number of maintained facilities.
func (m *Maintainer) Len() int { return len(m.facs) }

// Insert adds a facility at fraction t on edge e, computing its cost vector
// with d early-terminating point probes, and returns its handle.
func (m *Maintainer) Insert(e graph.EdgeID, t float64) (Handle, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return 0, ErrClosed
	}
	if t < 0 || t > 1 {
		return 0, fmt.Errorf("dynamic: fraction %g outside [0,1]", t)
	}
	costs, err := expand.LocationCosts(m.src, m.loc, e, t, m.scratch)
	if err != nil {
		return 0, err
	}
	h := m.next
	m.next++
	m.facs[h] = &Entry{Handle: h, Edge: e, T: t, Costs: costs}
	if m.onUpdate != nil {
		m.onUpdate(e)
	}
	return h, nil
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
	for _, idx := range skyline.BNL(items) {
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
