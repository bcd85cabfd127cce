package core

import (
	"fmt"
	"math"
	"sort"

	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/vec"
)

// MaterializeAll performs the paper's straightforward baseline preparation:
// d complete network expansions from loc, materialising the full cost vector
// of every reachable facility (the entire MCN is read d times). Facilities
// unreachable under a cost type get +Inf there; facilities reachable under
// no cost type do not appear. Only opt.Interrupt (polled per expanded node) is
// consulted.
func MaterializeAll(src expand.Source, loc graph.Location, opt Options) (map[graph.FacilityID]vec.Costs, Stats, error) {
	d := src.D()
	out := make(map[graph.FacilityID]vec.Costs)
	var stats Stats
	sc := expand.Acquire(src)
	defer sc.Release()
	for i := 0; i < d; i++ {
		x, err := expand.New(src, i, loc, sc, opt.Interrupt)
		if err != nil {
			return nil, stats, err
		}
		for {
			p, c, ok, err := x.Next()
			if err != nil {
				return nil, stats, err
			}
			if !ok {
				break
			}
			stats.Pops++
			v := out[p]
			if v == nil {
				v = make(vec.Costs, d)
				for j := range v {
					v[j] = math.Inf(1)
				}
				out[p] = v
				stats.Tracked++
			}
			v[i] = c
		}
		stats.NodeExpansions += x.NodeCount()
	}
	return out, stats, nil
}

// NaiveSkyline is the baseline skyline: materialise every cost vector, then
// run a conventional skyline operator (BNL). Results are sorted by facility
// id; the baseline is not progressive. Only opt.Interrupt is consulted.
func NaiveSkyline(src expand.Source, loc graph.Location, opt Options) (*Result, error) {
	vectors, stats, err := MaterializeAll(src, loc, opt)
	if err != nil {
		return nil, err
	}
	ids := make([]graph.FacilityID, 0, len(vectors))
	for id := range vectors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	items := make([]vec.Costs, len(ids))
	for i, id := range ids {
		items[i] = vectors[id]
	}
	res := &Result{Stats: stats}
	for _, idx := range BNL(items) {
		res.Facilities = append(res.Facilities, Facility{ID: ids[idx], Costs: items[idx].Clone()})
	}
	return res, nil
}

// BNL returns the indices, ascending, of the skyline tuples of items — the
// conventional block-nested-loops skyline operator (Börzsönyi et al.) with an
// in-memory window. All vectors must be complete and share one
// dimensionality. NaiveSkyline runs it over the materialised cost vectors;
// the maintainer of internal/dynamic runs it over its maintained vectors.
func BNL(items []vec.Costs) []int {
	var window []int
	for i, c := range items {
		dominated := false
		for _, j := range window {
			if items[j].Dominates(c) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		keep := window[:0]
		for _, j := range window {
			if !c.Dominates(items[j]) {
				keep = append(keep, j)
			}
		}
		window = append(keep, i)
	}
	sort.Ints(window)
	return window
}

// Within returns the facilities whose entire cost vector fits the budget
// (cᵢ(p) ≤ budget[i] for every cost type) — the multi-cost range query the
// paper notes NE supports. Each expansion stops as soon as its frontier
// exceeds its budget component, so the search is local. Results are sorted
// by facility id with complete cost vectors.
//
// When Options.Bounds carries the pruning index, each expansion additionally
// discards popped node labels whose cost plus nearest-facility lower bound
// exceeds the budget component — a static, admissible horizon: every
// facility within budget pops at or below it, so the result set is
// byte-identical to the unpruned run (the work Stats shrink).
func Within(src expand.Source, loc graph.Location, budget vec.Costs, opt Options) (*Result, error) {
	if len(budget) != src.D() {
		return nil, fmt.Errorf("core: budget has %d components, network has %d", len(budget), src.D())
	}
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	if !budget.Complete() {
		return nil, fmt.Errorf("core: budget must be fully specified")
	}
	sc := expand.Acquire(src)
	defer sc.Release()
	shared := engineSource(src, opt.Engine, sc)
	d := shared.D()
	type partial struct {
		costs vec.Costs
		known int
	}
	found := make(map[graph.FacilityID]*partial)
	var stats Stats
	for i := 0; i < d; i++ {
		x, err := expand.New(shared, i, loc, sc, opt.Interrupt)
		if err != nil {
			return nil, err
		}
		if lb := opt.Bounds; lb != nil {
			h := budget[i]
			x.SetPrune(lb, func(costPlusBound float64) bool {
				return costPlusBound*index.SlackFactor > h
			})
		}
		for {
			if x.HeadKey() > budget[i] {
				break // nothing else can fit this component
			}
			p, c, ok, err := x.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			stats.Pops++
			if c > budget[i] {
				break
			}
			f := found[p]
			if f == nil {
				f = &partial{costs: vec.New(d)}
				found[p] = f
				stats.Tracked++
			}
			f.costs[i] = c
			f.known++
		}
		stats.NodeExpansions += x.NodeCount()
		stats.PrunedNodes += x.PrunedCount()
	}
	ids := make([]graph.FacilityID, 0, len(found))
	for id, f := range found {
		if f.known == d {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	res := &Result{Stats: stats}
	for _, id := range ids {
		res.Facilities = append(res.Facilities, Facility{ID: id, Costs: found[id].costs.Clone()})
	}
	return res, nil
}

// NaiveTopK is the baseline top-k: materialise every cost vector, score all
// facilities and sort. Only opt.Interrupt is consulted.
func NaiveTopK(src expand.Source, loc graph.Location, agg vec.Aggregate, k int, opt Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: top-k requires k >= 1, got %d", k)
	}
	vectors, stats, err := MaterializeAll(src, loc, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: stats}
	for id, v := range vectors {
		res.Facilities = append(res.Facilities, Facility{ID: id, Costs: v.Clone(), Score: agg.Score(v)})
	}
	sort.Slice(res.Facilities, func(i, j int) bool {
		if res.Facilities[i].Score != res.Facilities[j].Score {
			return res.Facilities[i].Score < res.Facilities[j].Score
		}
		return res.Facilities[i].ID < res.Facilities[j].ID
	})
	if len(res.Facilities) > k {
		res.Facilities = res.Facilities[:k]
	}
	return res, nil
}
