package core

import (
	"fmt"
	"math"
	"sort"

	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// Skyline computes sky(q): the facilities whose cost vectors are not
// dominated by any other facility (paper Sec. IV). The search is local —
// expansions stop as soon as the remaining network provably contains no
// skyline member — and progressive: confirmed members are delivered through
// opt.OnResult before the query finishes.
//
// Tie semantics: every reported facility is provably undominated, and every
// unreported reachable facility is either dominated or carries a cost vector
// exactly equal to a reported member's. On networks without exact cost ties
// (the paper's setting) the output is exactly sky(q). Facilities reachable
// under no cost type are never reported.
//
// Skyline deliberately ignores Options.Bounds: the progressive emission
// order is part of the result, and both the first-NN shortcut and the
// tie-pending resolution (blocked/resolvePending) consult the live
// expansion head keys, which lower-bound node discards would inflate —
// the same facility set would come out in a different, interleaving-
// dependent order. Pruning here is confined to the queries with a scalar
// horizon (fixed-k top-k and Within), where discards are provably
// invisible; see Options.Bounds.
func Skyline(src expand.Source, loc graph.Location, opt Options) (*Result, error) {
	sc := expand.Acquire(src)
	defer sc.Release()
	shared := engineSource(src, opt.Engine, sc)
	exps, err := perCost(shared, loc, sc, opt.Interrupt)
	if err != nil {
		return nil, err
	}
	return skylineOverExpansions(shared, sc, exps, opt)
}

// MultiSourceSkyline computes the multi-source skyline of Deng et al. (ICDE
// 2007, the paper's Sec. II-C related work): a single cost type, several
// query locations, and each facility judged by its vector of network
// distances from the query locations. Facilities not dominated under that
// vector are returned. The growing/shrinking machinery of LSA/CEA applies
// unchanged — expansion i simply starts from locs[i] instead of running cost
// type i — so engines, enhancements and progressiveness all carry over. No
// Euclidean lower bounds are used (our cost types are general), matching
// this library's Dijkstra-only setting.
func MultiSourceSkyline(src expand.Source, costIdx int, locs []graph.Location, opt Options) (*Result, error) {
	if len(locs) == 0 {
		return nil, fmt.Errorf("core: multi-source skyline requires at least one location")
	}
	if costIdx < 0 || costIdx >= src.D() {
		return nil, fmt.Errorf("core: cost index %d out of range (d=%d)", costIdx, src.D())
	}
	sc := expand.Acquire(src)
	defer sc.Release()
	shared := engineSource(src, opt.Engine, sc)
	exps, err := perLocation(shared, costIdx, locs, sc, opt.Interrupt)
	if err != nil {
		return nil, err
	}
	return skylineOverExpansions(shared, sc, exps, opt)
}

// skylineOverExpansions runs the growing/shrinking skyline driver over any
// family of NN expansions started on sc; component i of every tracked cost
// vector is fed by exps[i].
func skylineOverExpansions(src expand.Source, sc *expand.Scratch, exps []*expand.Expansion, opt Options) (*Result, error) {
	s := newSkylineRun(src, sc, exps, opt, nil)
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// newSkylineRun prepares the driver. deliver, when non-nil, receives every
// confirmed facility in emission order and may stop the query early by
// returning false (the streaming surface); run then returns
// errStreamStopped. The OnResult option is layered on the same hook.
func newSkylineRun(src expand.Source, sc *expand.Scratch, exps []*expand.Expansion, opt Options, deliver func(Facility) bool) *skylineRun {
	if deliver == nil {
		cb := opt.OnResult
		deliver = func(f Facility) bool {
			if cb != nil {
				cb(f)
			}
			return true
		}
	} else if cb := opt.OnResult; cb != nil {
		next := deliver
		deliver = func(f Facility) bool {
			cb(f)
			return next(f)
		}
	}
	return &skylineRun{
		src:       src,
		sc:        sc,
		opt:       opt,
		deliver:   deliver,
		tracked:   newTrackedSet(),
		d:         len(exps),
		exps:      exps,
		exhausted: make([]bool, len(exps)),
	}
}

type skylineRun struct {
	src expand.Source
	sc  *expand.Scratch
	opt Options
	d   int

	// deliver is the progressive emission hook; returning false stops the
	// query (stopped) at the next driver check.
	deliver func(Facility) bool
	stopped bool

	exps      []*expand.Expansion
	exhausted []bool

	tracked    trackedSet
	candidates int // |CS|: tracked with cand && !gone && !pinned
	pending    []*tracked
	skyOrder   []*tracked
	shrinking  bool
	stats      Stats
}

func (s *skylineRun) run() error {
	for !s.done() {
		if s.stopped {
			return errStreamStopped
		}
		progressed := false
		for i := 0; i < s.d && !s.done(); i++ {
			// Per-pop stop check: a streaming consumer that broke out of its
			// loop during the previous pop's emission must not pay for the
			// rest of the round — the remaining expansions can each expand
			// arbitrarily many nodes before their next facility.
			if s.stopped {
				return errStreamStopped
			}
			if !s.active(i) {
				continue
			}
			p, c, ok, err := s.exps[i].Next()
			if err != nil {
				return err
			}
			if !ok {
				s.exhausted[i] = true
				s.resolvePending()
				continue
			}
			progressed = true
			if err := s.onPop(i, p, c); err != nil {
				return err
			}
		}
		if !progressed && !s.done() {
			if err := s.finalize(); err != nil {
				return err
			}
			break
		}
	}
	if s.stopped {
		return errStreamStopped
	}
	return nil
}

func (s *skylineRun) done() bool {
	return s.shrinking && s.candidates == 0 && len(s.pending) == 0
}

// active reports whether expansion i still has work: during growing always;
// during shrinking only while some unresolved facility misses cost i (the
// paper's per-cost stopping rule, widened to keep tie-pending resolution
// sound). Inactivity is recomputed every round, so an expansion "stopped"
// by this rule resumes automatically if a later pin needs it.
func (s *skylineRun) active(i int) bool {
	if s.exhausted[i] {
		return false
	}
	if !s.shrinking {
		return true
	}
	if s.opt.NoEnhancements {
		return s.candidates > 0 || len(s.pending) > 0
	}
	for _, tr := range s.tracked.order {
		if tr.gone || tr.pinned {
			continue
		}
		if !tr.cand && !(tr.inSky && len(s.pending) > 0) {
			continue
		}
		if vec.IsUnknown(tr.costs[i]) {
			return true
		}
	}
	return false
}

func (s *skylineRun) onPop(i int, p graph.FacilityID, c float64) error {
	s.stats.Pops++
	tr := s.tracked.byID[p]
	if tr == nil {
		if s.shrinking {
			// New facility encountered during shrinking: provably dominated
			// by the first pinned facility; ignore (paper Sec. IV-A). With
			// enhancements enabled the expansion filter already drops these.
			return nil
		}
		tr = s.tracked.add(p, s.d)
		s.stats.Tracked++
	}
	if tr.gone {
		return nil
	}
	pinnedNow, err := tr.setCost(i, c)
	if err != nil {
		return err
	}

	// First-NN shortcut: the first facility popped by expansion i is part of
	// the skyline if nothing else can tie its i-th cost (head key strictly
	// above c); report it immediately (paper Sec. IV-A).
	if !s.opt.NoEnhancements && !s.shrinking && !tr.inSky &&
		s.exps[i].PopCount() == 1 && s.exps[i].HeadKey() > c {
		if tr.cand {
			tr.cand = false
			s.candidates--
		}
		s.emit(tr)
	}

	if !tr.inSky && !tr.cand && !tr.pinned && !tr.pend {
		tr.cand = true
		s.candidates++
	}
	if pinnedNow {
		if tr.cand {
			tr.cand = false
			s.candidates--
		}
		if err := s.onPin(tr); err != nil {
			return err
		}
	}
	s.resolvePending()
	return nil
}

func (s *skylineRun) onPin(tr *tracked) error {
	if !s.shrinking {
		s.shrinking = true
		s.stats.GrowingPops = s.stats.Pops
		if !s.opt.NoEnhancements {
			if err := s.installFilters(); err != nil {
				return err
			}
		}
	}

	// A pinned facility eliminates every candidate it provably dominates
	// (weak dominance on the candidate's known costs with a strict win on at
	// least one of them — unknown costs cannot be smaller than tr's, by the
	// incremental pop order), and every complete pending facility it
	// dominates outright. This holds even if tr itself is later found
	// dominated: its dominator dominates the same facilities transitively.
	s.eliminateDominatedBy(tr)

	// tr itself may be dominated by a facility that pinned earlier, but only
	// through an exact tie: without one it beats tr strictly on every cost,
	// and the elimination passes above have already removed tr.
	for _, other := range s.skyOrder {
		if other != tr && !other.gone && other.pinned && other.costs.Dominates(tr.costs) {
			tr.gone = true
			return nil
		}
	}
	for _, other := range s.pending {
		if other != tr && !other.gone && other.costs.Dominates(tr.costs) {
			tr.gone = true
			return nil
		}
	}

	if tr.inSky {
		return nil // already reported via the first-NN shortcut
	}
	if s.blocked(tr) {
		tr.pend = true
		s.pending = append(s.pending, tr)
		return nil
	}
	s.emit(tr)
	return nil
}

func (s *skylineRun) eliminateDominatedBy(tr *tracked) {
	for _, q := range s.tracked.order {
		if q == tr || q.gone || q.inSky || q.pend {
			continue
		}
		if q.pinned {
			continue // handled when q pinned (it ran the checks itself)
		}
		if tr.costs.DominatesKnown(q.costs) {
			q.gone = true
			if q.cand {
				q.cand = false
				s.candidates--
			}
		}
	}
	kept := s.pending[:0]
	for _, q := range s.pending {
		if q != tr && tr.costs.Dominates(q.costs) {
			q.gone = true
			q.pend = false
			continue
		}
		kept = append(kept, q)
	}
	s.pending = kept
}

// blocked reports whether some tracked, unpinned facility q could still turn
// out to dominate the pinned tr: q's known costs must all be ≤ tr's, the
// expansion frontiers must leave room for q's unknown costs to be ≤ tr's,
// and a strict win must remain possible somewhere. Without exact ties this
// is never true — the first strict difference in a known dim or a frontier
// already past tr's cost refutes q.
func (s *skylineRun) blocked(tr *tracked) bool {
	for _, q := range s.tracked.order {
		if q == tr || q.gone || q.pinned {
			continue
		}
		if !q.cand && !q.inSky {
			continue
		}
		possible := true
		strict := false
		for j := 0; j < s.d; j++ {
			if !vec.IsUnknown(q.costs[j]) {
				if q.costs[j] > tr.costs[j] {
					possible = false
					break
				}
				if q.costs[j] < tr.costs[j] {
					strict = true
				}
				continue
			}
			tj := s.exps[j].HeadKey()
			if tj > tr.costs[j] {
				possible = false
				break
			}
			if tj < tr.costs[j] {
				strict = true
			}
		}
		if possible && strict {
			return true
		}
	}
	return false
}

func (s *skylineRun) resolvePending() {
	for changed := true; changed; {
		changed = false
		kept := s.pending[:0]
		for _, tr := range s.pending {
			switch {
			case tr.gone:
				tr.pend = false
				changed = true
			case !s.blocked(tr):
				tr.pend = false
				s.emit(tr)
				changed = true
			default:
				kept = append(kept, tr)
			}
		}
		s.pending = kept
	}
}

func (s *skylineRun) emit(tr *tracked) {
	tr.inSky = true
	s.skyOrder = append(s.skyOrder, tr)
	if !s.stopped && !s.deliver(Facility{ID: tr.id, Costs: tr.costs.Clone()}) {
		s.stopped = true
	}
}

// installFilters restricts the shrinking stage to the unresolved facilities
// and their edges.
func (s *skylineRun) installFilters() error {
	return s.tracked.installFilters(s.src, s.sc, s.exps, func(tr *tracked) bool {
		return !tr.gone && !tr.pinned
	})
}

// finalize handles global exhaustion: every expansion is exhausted or
// inactive, so any cost still unknown is +Inf (unreachable under that cost
// type). Remaining candidates are completed and run through the pinning
// logic in id order; pending entries then resolve because every relevant
// frontier is +Inf.
func (s *skylineRun) finalize() error {
	var rest []*tracked
	for _, tr := range s.tracked.order {
		if tr.cand && !tr.gone && !tr.pinned {
			rest = append(rest, tr)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].id < rest[j].id })
	for _, tr := range rest {
		if tr.gone {
			continue // eliminated by an earlier iteration's pin
		}
		for j := range tr.costs {
			if vec.IsUnknown(tr.costs[j]) {
				tr.costs[j] = math.Inf(1)
				tr.known++
			}
		}
		tr.pinned = true
		tr.cand = false
		s.candidates--
		if err := s.onPin(tr); err != nil {
			return err
		}
	}
	// Unpinned first-NN skyline members also get their unknowns closed so
	// they stop acting as potential dominators. Closing them can make a
	// member dominate a facility still pending on it, which it eliminates,
	// as any pin does.
	for _, tr := range s.tracked.order {
		if tr.gone || tr.pinned || !tr.inSky {
			continue
		}
		for j := range tr.costs {
			if vec.IsUnknown(tr.costs[j]) && s.exhausted[j] {
				tr.costs[j] = math.Inf(1)
				tr.known++
			}
		}
		if tr.known == s.d {
			tr.pinned = true
			s.eliminateDominatedBy(tr)
		}
	}
	s.resolvePending()
	return nil
}

func (s *skylineRun) result() *Result {
	for _, x := range s.exps {
		s.stats.NodeExpansions += x.NodeCount()
	}
	res := &Result{Stats: s.stats}
	for _, tr := range s.skyOrder {
		res.Facilities = append(res.Facilities, Facility{ID: tr.id, Costs: tr.costs.Clone()})
	}
	return res
}
