package core

import (
	"fmt"

	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// Nearest returns up to k facilities closest to loc under cost type costIdx,
// in non-decreasing cost order — the incremental network-expansion primitive
// (NE) the paper's algorithms are built on, exposed for ordinary kNN
// workloads. Each facility's cost vector carries the searched component
// only; Score holds the same value. Only opt.Interrupt is consulted: a
// single expansion has nothing to share, so the engine choice is moot.
func Nearest(src expand.Source, loc graph.Location, costIdx, k int, opt Options) (*Result, error) {
	if costIdx < 0 || costIdx >= src.D() {
		return nil, fmt.Errorf("core: cost index %d out of range (d=%d)", costIdx, src.D())
	}
	if k < 1 {
		return nil, fmt.Errorf("core: nearest requires k >= 1, got %d", k)
	}
	sc := expand.Acquire(src)
	defer sc.Release()
	x, err := expand.New(src, costIdx, loc, sc)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for len(res.Facilities) < k {
		if err := opt.interrupted(); err != nil {
			return nil, err
		}
		p, c, ok, err := x.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		res.Stats.Pops++
		costs := vec.New(src.D())
		costs[costIdx] = c
		res.Facilities = append(res.Facilities, Facility{ID: p, Costs: costs, Score: c})
	}
	res.Stats.Tracked = len(res.Facilities)
	res.Stats.NodeExpansions = x.NodeCount()
	return res, nil
}
