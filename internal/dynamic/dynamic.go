// Package dynamic implements the paper's first future-work item (Sec. VII):
// incrementally maintaining the skyline and top-k sets of a fixed query
// location while facilities are inserted and deleted.
//
// A Maintainer materialises its state once. d expansions from the query
// location, one per cost type, settle every reachable node without reading
// a facility record; they yield the location's distance to every node under
// every cost type, and run concurrently on an in-memory source. One sweep of
// the facility records then prices every initial facility on those
// distances, with the arithmetic an expansion would use. Facility updates
// never change the network, so the distances stay exact for the
// Maintainer's whole life. An insertion costs one edge lookup and O(d)
// arithmetic on them; a deletion drops one entry. Neither traverses the
// network; reads run a dominance pass (or a scoring sort) over the
// maintained vectors.
package dynamic

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
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
}

// New materialises the initial state for query location loc. The source's
// existing facilities seed the maintained set; facilities reachable under no
// cost type are excluded (they can never enter any preference result). Only
// opt.Interrupt is consulted.
func New(src expand.Source, loc graph.Location, opt core.Options) (*Maintainer, error) {
	dist, err := nodeDistances(src, loc, opt)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{src: src, loc: loc, dist: dist}
	if err := m.sweep(); err != nil {
		return nil, err
	}
	return m, nil
}

// nodeDistances runs one node-only expansion from loc per cost type — every
// facility record refused, so none is read — each polling opt.Interrupt
// before every node it expands, and returns each one's node distances. On
// a zero-copy source the d expansions run concurrently, each on its own
// scratch; any other source runs them in turn, so that the order of its
// record reads, and with it what a buffer pool keeps, does not depend on
// scheduling.
// Either way every expansion has ended when nodeDistances returns.
func nodeDistances(src expand.Source, loc graph.Location, opt core.Options) ([][]float64, error) {
	dist := make([][]float64, src.D())
	run := func(i int) error {
		sc := expand.Acquire(src)
		defer sc.Release()
		x, err := expand.New(src, i, loc, sc, opt.Interrupt)
		if err != nil {
			return err
		}
		x.SetFilter(func(graph.EdgeID) bool { return false }, func(graph.FacilityID) bool { return false })
		for {
			ev, _, _, err := x.Step()
			if err != nil {
				return err
			}
			if ev == expand.EventExhausted {
				dist[i] = x.Distances(nil)
				return nil
			}
		}
	}
	if zc, ok := src.(expand.ZeroCopy); !ok || !zc.ZeroCopyRecords() {
		for i := range dist {
			if err := run(i); err != nil {
				return nil, err
			}
		}
		return dist, nil
	}
	errs := make([]error, len(dist))
	var wg sync.WaitGroup
	for i := range dist {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return dist, nil
}

// sweep builds the maintained entries from m.dist in one pass over the
// facility records: the query edge's, then those on the arcs of every
// reachable node in id order. A facility's cost i is the least of what the
// expansion under cost i would have en-heaped it at — along the query edge
// from q, or at a node's distance plus the partial arc weight — computed
// with the same arithmetic, so it carries the same bits. A node is
// reachable when some cost type puts it at a finite distance; with finite
// edge costs that is exactly the set every expansion settles.
func (m *Maintainer) sweep() error {
	src, d := m.src, len(m.dist)
	coster, _ := src.(expand.EdgeCoster)
	// slot[p] is 1 + the index of facility p's entry, 0 while unseen; a
	// source that declares its facility id space fixes its length.
	var slot []int32
	var entries []Entry
	var costs []float64 // entry k's costs are costs[k*d : (k+1)*d]
	limit := math.MaxInt32
	if sz, ok := src.(expand.Sized); ok {
		limit = sz.NumFacilities()
		slot = make([]int32, limit)
		entries = make([]Entry, 0, limit)
		costs = make([]float64, 0, limit*d)
	}
	visit := func(e graph.EdgeID, fe graph.FacEntry) (int, error) {
		if int(fe.ID) >= len(slot) {
			if int(fe.ID) >= limit {
				return 0, fmt.Errorf("dynamic: facility %d out of range", fe.ID)
			}
			slot = append(slot, make([]int32, int(fe.ID)+1-len(slot))...)
		}
		if k := slot[fe.ID]; k > 0 {
			return int(k-1) * d, nil
		}
		entries = append(entries, Entry{Handle: Handle(fe.ID), Edge: e, T: fe.T})
		slot[fe.ID] = int32(len(entries))
		for range d {
			costs = append(costs, math.Inf(1))
		}
		return len(costs) - d, nil
	}

	// Facilities on the query edge, seeded as expand.New seeds them.
	info, err := src.EdgeInfo(m.loc.Edge)
	if err != nil {
		return err
	}
	if info.FacCount > 0 {
		facs, err := src.Facilities(info.FacRef, info.FacCount)
		if err != nil {
			return err
		}
		for _, fe := range facs {
			if src.Directed() && fe.T < m.loc.T {
				continue // behind q on a one-way segment
			}
			off, err := visit(m.loc.Edge, fe)
			if err != nil {
				return err
			}
			for i := range d {
				// Abs changes no bit where the segment is one-way: there
				// fe.T >= q's fraction, and the difference is +0 or more.
				if c := math.Abs(fe.T-m.loc.T) * info.W[i]; c < costs[off+i] {
					costs[off+i] = c
				}
			}
		}
	}

	nodes := 0
	for _, row := range m.dist {
		nodes = max(nodes, len(row))
	}
	key := make([]float64, d)
	for v := range nodes {
		reachable := false
		for i, row := range m.dist {
			key[i] = at(row, graph.NodeID(v))
			reachable = reachable || !math.IsInf(key[i], 1)
		}
		if !reachable {
			continue
		}
		arcs, err := src.Adjacency(graph.NodeID(v))
		if err != nil {
			return err
		}
		for _, a := range arcs {
			if a.FacCount == 0 {
				continue
			}
			facs, err := src.Facilities(a.FacRef, a.FacCount)
			if err != nil {
				return err
			}
			for _, fe := range facs {
				off, err := visit(a.Edge, fe)
				if err != nil {
					return err
				}
				partial := graph.PartialFrom(a.Forward, fe.T)
				for i := range d {
					var w float64
					if coster != nil {
						w = coster.EdgeCost(a.Edge, i)
					} else {
						w = a.W[i]
					}
					if c := key[i] + partial*w; c < costs[off+i] {
						costs[off+i] = c
					}
				}
			}
		}
	}

	m.facs = make(map[Handle]*Entry, len(entries))
	for k := range entries {
		e := &entries[k]
		e.Costs = costs[k*d : (k+1)*d : (k+1)*d]
		m.facs[e.Handle] = e
		m.next = max(m.next, e.Handle+1)
	}
	return nil
}

// Close marks the maintainer closed, so that later Inserts fail with
// ErrClosed. It is idempotent and safe for concurrent use.
func (m *Maintainer) Close() error {
	m.closed.Store(true)
	return nil
}

// Insert adds a facility at fraction t on edge e and returns its handle. Its
// cost vector is what an expansion would report for a facility there — the
// cheaper of entering e from either end-node, or walking along the query
// edge when e is that edge — evaluated on the maintained node distances, so
// an insert reads one edge record and traverses nothing. A facility the
// query location cannot reach under any cost type is still maintained, with
// a cost vector of +Inf throughout; Skyline and TopK leave it out.
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
	return h, nil
}

// at reads node v's distance from one row of Maintainer.dist.
func at(dist []float64, v graph.NodeID) float64 {
	if int(v) < len(dist) {
		return dist[v]
	}
	return math.Inf(1)
}

// Delete removes a maintained facility, reachable or not.
func (m *Maintainer) Delete(h Handle) error {
	if _, ok := m.facs[h]; !ok {
		return fmt.Errorf("dynamic: unknown facility handle %d", h)
	}
	delete(m.facs, h)
	return nil
}

// reachable returns the entries reachable under at least one cost type,
// sorted by handle: the facilities a query over the network could report
// (core leaves the others out, and so does New for an initial facility).
func (m *Maintainer) reachable() []*Entry {
	out := make([]*Entry, 0, len(m.facs))
	for _, e := range m.facs {
		if slices.ContainsFunc(e.Costs, func(c float64) bool { return !math.IsInf(c, 1) }) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Handle < out[j].Handle })
	return out
}

// Skyline returns the current skyline over the maintained facilities the
// query location can reach, sorted by handle.
func (m *Maintainer) Skyline() []Entry {
	entries := m.reachable()
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

// TopK returns the k best maintained facilities the query location can
// reach under agg, ascending score.
func (m *Maintainer) TopK(agg vec.Aggregate, k int) ([]Entry, []float64, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("dynamic: top-k requires k >= 1, got %d", k)
	}
	entries := m.reachable()
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
