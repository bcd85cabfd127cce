// Package core implements the paper's query algorithms over multi-cost
// networks: the Local Search Algorithm (LSA) and Combined Expansion
// Algorithm (CEA) for MCN skylines (Sec. IV), top-k processing with
// lower-bound pruning (Sec. V), the incremental top-k iterator, and the
// straightforward d-complete-expansions baselines the paper compares
// against.
package core

import (
	"context"
	"fmt"

	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// Engine selects how the d per-cost expansions access the network store.
type Engine int

// Supported engines.
const (
	// LSA runs d independent expansions; a record crossed by several
	// expansions is fetched from the store each time (up to d times).
	LSA Engine = iota
	// CEA shares every fetched record among the d expansions, so each
	// adjacency or facility record is fetched at most once per query. NN
	// order, candidate sets and results are identical to LSA.
	CEA
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case LSA:
		return "LSA"
	case CEA:
		return "CEA"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Facility is one query answer: a facility with its cost vector and, for
// top-k queries, its aggregate score. Skyline results emitted before being
// pinned (the first-NN shortcut) may carry unknown components in callbacks;
// final results are as complete as the search made them.
type Facility struct {
	ID    graph.FacilityID
	Costs vec.Costs
	Score float64
}

// Stats describes the work one query performed.
type Stats struct {
	// Pops counts facility NN reports across all d expansions.
	Pops int
	// GrowingPops is Pops at the end of the growing stage.
	GrowingPops int
	// NodeExpansions counts node-expansion events across all d expansions.
	NodeExpansions int
	// PrunedNodes counts node pops discarded by the lower-bound pruning
	// index (Options.Bounds) before their adjacency was read. Always zero
	// for skyline, nearest and top-k queries, which run unpruned (see
	// Options.Bounds).
	PrunedNodes int
	// Tracked is the number of distinct facilities ever tracked (candidates
	// plus directly reported ones).
	Tracked int
}

// Result is a completed skyline or top-k answer. Skyline facilities appear
// in emission (progressive) order; top-k facilities in ascending score
// order.
type Result struct {
	Facilities []Facility
	Stats      Stats
}

// Options configures skyline and top-k processing. Expansion state is not
// among the options: every entry point acquires one expand.Scratch for its
// source, runs the query on it and releases it (the closeable handles —
// TopKIterator, dynamic.Maintainer — in their Close), whichever layer
// called it and whatever the source.
type Options struct {
	// Engine selects LSA (default) or CEA.
	Engine Engine
	// NoEnhancements disables the paper's Sec. IV-A optimisations — the
	// first-NN direct-skyline shortcut, candidate-edge facility filtering in
	// the shrinking stage, and per-cost expansion stopping — for ablation
	// studies. Results are unaffected.
	NoEnhancements bool
	// OnResult, when set on a skyline query, receives every skyline
	// facility the moment it is confirmed (the algorithms are progressive).
	// The cost vector passed may still contain unknown components.
	OnResult func(Facility)
	// Interrupt, when set, is polled by the query's expansions before every
	// node they expand; a non-nil return aborts the query with that error.
	// The engine layer wires per-query context cancellation and timeouts
	// through it. It may be polled from several goroutines at once (a
	// maintainer build runs its expansions concurrently on an in-memory
	// source), so it must be cheap and safe for concurrent use.
	Interrupt func() error
	// Bounds, when set, is the precomputed pruning index (internal/index):
	// per-criterion lower bounds from every node to its nearest facility.
	// Within uses its budget as a static horizon, discarding popped node
	// labels that provably cannot contribute a result; results stay
	// byte-identical to the unpruned run (only Stats change). Skyline, top-k
	// and nearest queries ignore it: skyline's progressive emission order
	// observably depends on the live expansion frontiers that node discards
	// would perturb, a top-k horizon exists only once k facilities are pinned
	// (by then it cut no node on any measured workload), and an unbounded
	// nearest/incremental query has no admissible horizon. The bounds must
	// be admissible for this source's costs and facility set.
	Bounds expand.LowerBounder
}

// BindContext returns a copy of o whose Interrupt hook also observes ctx:
// once ctx is cancelled or past its deadline, the next interrupt poll aborts
// the query with ctx's error. Any previously installed hook keeps running
// after the ctx check. Contexts that can never be cancelled (Background,
// TODO) are not wired in, so the zero-cost path stays zero-cost. This is the
// single adapter every context-first entry point — the facade, the engine's
// executor, the streaming iterators — funnels through. The hook polls with
// a non-blocking receive on ctx.Done(), which takes no lock (ctx.Err
// does), so one poll per expanded node stays off the profile.
func (o Options) BindContext(ctx context.Context) Options {
	if ctx == nil {
		return o
	}
	done := ctx.Done()
	if done == nil {
		return o
	}
	prev := o.Interrupt
	o.Interrupt = func() error {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if prev != nil {
			return prev()
		}
		return nil
	}
	return o
}

// engineSource wraps src per the selected engine: CEA runs on the record
// memo of the query's scratch sc. Zero-copy sources (the flat CSR path) are
// exempt: their records are shared slices with no per-fetch cost, so the
// memo would be pure overhead and CEA degenerates to LSA with identical
// results.
func engineSource(src expand.Source, e Engine, sc *expand.Scratch) expand.Source {
	if e == CEA {
		if zc, ok := src.(expand.ZeroCopy); ok && zc.ZeroCopyRecords() {
			return src
		}
		return sc.Shared(src)
	}
	return src
}

// perCost starts the d per-cost expansions of a single-location query on
// sc, each polling interrupt.
func perCost(src expand.Source, loc graph.Location, sc *expand.Scratch, interrupt func() error) ([]*expand.Expansion, error) {
	exps := make([]*expand.Expansion, src.D())
	for i := range exps {
		x, err := expand.New(src, i, loc, sc, interrupt)
		if err != nil {
			return nil, err
		}
		exps[i] = x
	}
	return exps, nil
}

// perLocation starts the expansions of a multi-source query on sc: one per
// query location, all under one cost type, each polling interrupt.
func perLocation(src expand.Source, costIdx int, locs []graph.Location, sc *expand.Scratch, interrupt func() error) ([]*expand.Expansion, error) {
	exps := make([]*expand.Expansion, len(locs))
	for i, loc := range locs {
		x, err := expand.New(src, costIdx, loc, sc, interrupt)
		if err != nil {
			return nil, err
		}
		exps[i] = x
	}
	return exps, nil
}

// tracked is the per-facility bookkeeping shared by the drivers: the
// partially known cost vector plus status flags.
type tracked struct {
	id     graph.FacilityID
	costs  vec.Costs
	known  int
	inSky  bool // emitted as a skyline member
	cand   bool // counted in the candidate set CS
	pinned bool // popped by all d expansions (vector complete)
	gone   bool // eliminated
	pend   bool // pinned but held back pending tie resolution
	// score is the aggregate of costs, set once pinned (top-k drivers only).
	score float64
}

// before is the (score, id) total order the top-k drivers rank pinned
// facilities by.
func (t *tracked) before(o *tracked) bool {
	if t.score != o.score {
		return t.score < o.score
	}
	return t.id < o.id
}

// trackedSet holds the facilities a driver has met. Every walk over it goes
// through order — arrival order, which is a function of the query alone —
// because a walk that reads the store (installFilters) passes its order on
// to the buffer pool, and the paper's metric is that pool's miss count.
type trackedSet struct {
	byID  map[graph.FacilityID]*tracked
	order []*tracked
}

func newTrackedSet() trackedSet {
	return trackedSet{byID: make(map[graph.FacilityID]*tracked), order: make([]*tracked, 0, 16)}
}

// add starts tracking facility id, with all d costs unknown.
func (s *trackedSet) add(id graph.FacilityID, d int) *tracked {
	tr := &tracked{id: id, costs: vec.New(d)}
	s.byID[id] = tr
	s.order = append(s.order, tr)
	return tr
}

// installFilters is the shrinking-stage optimisation: probe the facility
// tree for the edge of each facility keep still accepts, then restrict all
// expansions to those edges and facilities, avoiding facility-file reads
// everywhere else. keep is consulted again on every later filter check, so
// it must read the live status flags.
func (s *trackedSet) installFilters(src expand.Source, sc *expand.Scratch, exps []*expand.Expansion, keep func(*tracked) bool) error {
	edges := sc.EdgeSet()
	for _, tr := range s.order {
		if !keep(tr) {
			continue
		}
		e, err := src.FacilityEdge(tr.id)
		if err != nil {
			return err
		}
		if err := edges.Add(e); err != nil {
			return err
		}
	}
	allowEdge := edges.Has
	allowFac := func(p graph.FacilityID) bool {
		tr := s.byID[p]
		return tr != nil && keep(tr)
	}
	for _, x := range exps {
		x.SetFilter(allowEdge, allowFac)
	}
	return nil
}

// setCost records cost i and reports whether the facility just became
// pinned.
func (t *tracked) setCost(i int, c float64) (pinnedNow bool, err error) {
	if !vec.IsUnknown(t.costs[i]) {
		return false, fmt.Errorf("core: facility %d popped twice for cost %d", t.id, i)
	}
	t.costs[i] = c
	t.known++
	if t.known == len(t.costs) && !t.pinned {
		t.pinned = true
		return true, nil
	}
	return false, nil
}
