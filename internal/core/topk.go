package core

import (
	"fmt"
	"math"
	"sort"

	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// TopK returns the k facilities minimising the increasingly monotone
// aggregate agg over their cost vectors (paper Sec. V). The growing stage
// pins k facilities; the shrinking stage resolves the remaining candidates,
// eliminating them early through aggregate lower bounds derived from the
// expansion frontiers. Ties at the k-th position are resolved by facility id
// (the smaller id wins), so the result is a deterministic function of the
// facility cost vectors — independent of expansion interleaving, which
// makes the output agree exactly with NaiveTopK. Options.Bounds is not used:
// top-k runs without index pruning.
func TopK(src expand.Source, loc graph.Location, agg vec.Aggregate, k int, opt Options) (*Result, error) {
	if agg.Dims() != src.D() {
		return nil, fmt.Errorf("core: aggregate expects %d cost types, network has %d", agg.Dims(), src.D())
	}
	sc := expand.Acquire(src)
	defer sc.Release()
	shared := engineSource(src, opt.Engine, sc)
	exps, err := perCost(shared, loc, sc, opt.Interrupt)
	if err != nil {
		return nil, err
	}
	return topkOverExpansions(shared, sc, exps, agg, k, opt)
}

// MultiSourceTopK answers aggregate nearest-neighbour queries: a single cost
// type, several query locations, and facilities ranked by an increasingly
// monotone aggregate over their network distances from every location (e.g.
// a weighted sum = the classic min-sum meeting-point query). It reuses the
// top-k growing/shrinking driver with one expansion per location.
func MultiSourceTopK(src expand.Source, costIdx int, locs []graph.Location, agg vec.Aggregate, k int, opt Options) (*Result, error) {
	if len(locs) == 0 {
		return nil, fmt.Errorf("core: multi-source top-k requires at least one location")
	}
	if costIdx < 0 || costIdx >= src.D() {
		return nil, fmt.Errorf("core: cost index %d out of range (d=%d)", costIdx, src.D())
	}
	if agg.Dims() != len(locs) {
		return nil, fmt.Errorf("core: aggregate expects %d components, got %d locations", agg.Dims(), len(locs))
	}
	sc := expand.Acquire(src)
	defer sc.Release()
	shared := engineSource(src, opt.Engine, sc)
	exps, err := perLocation(shared, costIdx, locs, sc, opt.Interrupt)
	if err != nil {
		return nil, err
	}
	return topkOverExpansions(shared, sc, exps, agg, k, opt)
}

// topkOverExpansions runs the top-k driver over any family of NN expansions
// started on sc.
func topkOverExpansions(src expand.Source, sc *expand.Scratch, exps []*expand.Expansion, agg vec.Aggregate, k int, opt Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: top-k requires k >= 1, got %d", k)
	}
	s := &topkRun{
		src:       src,
		sc:        sc,
		agg:       agg,
		k:         k,
		opt:       opt,
		tracked:   newTrackedSet(),
		d:         len(exps),
		exps:      exps,
		exhausted: make([]bool, len(exps)),
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.result(), nil
}

type topkRun struct {
	src expand.Source
	sc  *expand.Scratch
	agg vec.Aggregate
	k   int
	opt Options
	d   int

	exps      []*expand.Expansion
	exhausted []bool

	tracked    trackedSet
	candidates int
	top        []*tracked // current top set, unordered; len ≤ k
	shrinking  bool
	stats      Stats

	// Cached k-th element of the top set under the (score, id) total order,
	// maintained from the moment the top set fills (refreshWorst), so the
	// per-pop and per-candidate comparisons against it do not rescan.
	worstScore float64
	worstID    graph.FacilityID
	worstIdx   int
}

func (s *topkRun) run() error {
	// Growing stage: round-robin NN retrieval until k facilities are pinned.
	for !s.shrinking {
		progressed := false
		for i := 0; i < s.d && !s.shrinking; i++ {
			if s.exhausted[i] {
				continue
			}
			p, c, ok, err := s.exps[i].Next()
			if err != nil {
				return err
			}
			if !ok {
				s.exhausted[i] = true
				continue
			}
			progressed = true
			if err := s.growPop(i, p, c); err != nil {
				return err
			}
		}
		if !progressed && !s.shrinking {
			return s.finalize() // network exhausted with fewer than k pins
		}
	}

	// Shrinking stage: one heap event per expansion per round (the paper's
	// finer probing granularity), with lower-bound elimination after every
	// full pass.
	for s.candidates > 0 {
		progressed := false
		for i := 0; i < s.d && s.candidates > 0; i++ {
			if !s.active(i) {
				continue
			}
			ev, p, c, err := s.exps[i].Step()
			if err != nil {
				return err
			}
			switch ev {
			case expand.EventExhausted:
				s.exhausted[i] = true
			case expand.EventNode:
				progressed = true
			case expand.EventFacility:
				progressed = true
				if err := s.shrinkPop(i, p, c); err != nil {
					return err
				}
			}
		}
		if s.candidates == 0 {
			break
		}
		s.pruneByLowerBound()
		if !progressed && s.candidates > 0 {
			return s.finalize()
		}
	}
	return nil
}

// active reports whether expansion i still contributes: some candidate is
// missing its i-th cost (paper's per-cost stopping rule for top-k).
func (s *topkRun) active(i int) bool {
	if s.exhausted[i] {
		return false
	}
	if s.opt.NoEnhancements {
		return true
	}
	for _, tr := range s.tracked.order {
		if tr.cand && !tr.gone && !tr.pinned && vec.IsUnknown(tr.costs[i]) {
			return true
		}
	}
	return false
}

func (s *topkRun) growPop(i int, p graph.FacilityID, c float64) error {
	s.stats.Pops++
	tr := s.tracked.byID[p]
	if tr == nil {
		tr = s.tracked.add(p, s.d)
		s.stats.Tracked++
		tr.cand = true
		s.candidates++
	}
	pinnedNow, err := tr.setCost(i, c)
	if err != nil {
		return err
	}
	if !pinnedNow {
		return nil
	}
	if tr.cand {
		tr.cand = false
		s.candidates--
	}
	tr.score = s.agg.Score(tr.costs)
	s.top = append(s.top, tr)
	if len(s.top) == s.k {
		s.refreshWorst()
		s.shrinking = true
		s.stats.GrowingPops = s.stats.Pops
		if !s.opt.NoEnhancements {
			if err := s.installFilters(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *topkRun) shrinkPop(i int, p graph.FacilityID, c float64) error {
	s.stats.Pops++
	tr := s.tracked.byID[p]
	if tr == nil || tr.gone {
		return nil // new facility in shrinking: provably outside the top-k
	}
	pinnedNow, err := tr.setCost(i, c)
	if err != nil {
		return err
	}
	if !pinnedNow {
		return nil
	}
	if tr.cand {
		tr.cand = false
		s.candidates--
	}
	tr.score = s.agg.Score(tr.costs)
	if s.beatsWorst(tr.score, p) {
		s.top[s.worstIdx].gone = true
		s.top[s.worstIdx] = tr
		s.refreshWorst()
	} else {
		tr.gone = true
	}
	return nil
}

// beatsWorst reports whether a pinned facility belongs in the top set under
// the (score, id) total order: strictly smaller score, or an equal score
// with a smaller id. Because the order is total, the top set maintained with
// this rule is always exactly the k smallest (score, id) pairs seen so far,
// whatever order the expansions deliver them in.
func (s *topkRun) beatsWorst(score float64, id graph.FacilityID) bool {
	if score != s.worstScore {
		return score < s.worstScore
	}
	return id < s.worstID
}

// refreshWorst recomputes the cached k-th (largest under (score, id)) member
// of the full top set.
func (s *topkRun) refreshWorst() {
	s.worstScore, s.worstID, s.worstIdx = math.Inf(-1), 0, -1
	for i, tr := range s.top {
		if i == 0 || tr.score > s.worstScore || (tr.score == s.worstScore && tr.id > s.worstID) {
			s.worstScore, s.worstID, s.worstIdx = tr.score, tr.id, i
		}
	}
}

// pruneByLowerBound eliminates candidates whose aggregate cost cannot fall
// below the current k-th score: unknown costs are bounded from below by the
// expansion head keys t_i (paper Sec. V). The comparison is strict — a
// candidate whose bound merely ties the k-th score could still enter under
// the (score, id) total order, and the head keys it is bounded with depend
// on the expansion interleaving, so eliminating it here would make the
// result depend on that interleaving. Such candidates resolve exactly
// instead.
func (s *topkRun) pruneByLowerBound() {
	if len(s.top) < s.k {
		return
	}
	heads := make(vec.Costs, s.d)
	for i, x := range s.exps {
		heads[i] = x.HeadKey()
	}
	for _, tr := range s.tracked.order {
		if !tr.cand || tr.gone || tr.pinned {
			continue
		}
		if s.agg.Score(tr.costs.FillUnknown(heads)) > s.worstScore {
			tr.gone = true
			tr.cand = false
			s.candidates--
		}
	}
}

// installFilters restricts the shrinking stage to the remaining candidates
// and their edges.
func (s *topkRun) installFilters() error {
	return s.tracked.installFilters(s.src, s.sc, s.exps, func(tr *tracked) bool {
		return tr.cand && !tr.gone && !tr.pinned
	})
}

// finalize handles global exhaustion: any unknown cost is +Inf. Remaining
// candidates are completed, scored and merged into the top set in
// deterministic order.
func (s *topkRun) finalize() error {
	var rest []*tracked
	for _, tr := range s.tracked.order {
		if tr.cand && !tr.gone && !tr.pinned {
			rest = append(rest, tr)
		}
	}
	for _, tr := range rest {
		for j := range tr.costs {
			if vec.IsUnknown(tr.costs[j]) {
				tr.costs[j] = math.Inf(1)
				tr.known++
			}
		}
		tr.pinned = true
		tr.cand = false
		s.candidates--
		tr.score = s.agg.Score(tr.costs)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].before(rest[j]) })
	for _, tr := range rest {
		if len(s.top) < s.k {
			s.top = append(s.top, tr)
			if len(s.top) == s.k {
				s.refreshWorst()
			}
			continue
		}
		if s.beatsWorst(tr.score, tr.id) {
			s.top[s.worstIdx].gone = true
			s.top[s.worstIdx] = tr
			s.refreshWorst()
		}
	}
	return nil
}

func (s *topkRun) result() *Result {
	for _, x := range s.exps {
		s.stats.NodeExpansions += x.NodeCount()
	}
	sort.Slice(s.top, func(i, j int) bool { return s.top[i].before(s.top[j]) })
	res := &Result{Stats: s.stats}
	for _, tr := range s.top {
		res.Facilities = append(res.Facilities, Facility{
			ID:    tr.id,
			Costs: tr.costs.Clone(),
			Score: tr.score,
		})
	}
	return res
}
