package expand

import (
	"math"

	"mcn/internal/graph"
)

// NodeDistances runs a single-cost Dijkstra from loc until every node in
// targets is settled (or the network is exhausted) and returns the exact
// distance of targets[i] at index i, +Inf where unreached. This is the
// point-probe primitive used for dynamic facility maintenance: computing the
// cost vector of one new facility needs only the distances of its edge's
// end-nodes.
//
// The probe draws one dense generation-stamped state unit from sc, so
// repeated probes (a Maintainer absorbing a stream of insertions) reuse the
// same arrays. The scratch must not be serving another query concurrently.
func NodeDistances(src Source, costIdx int, loc graph.Location, targets []graph.NodeID, sc *Scratch) ([]float64, error) {
	out := make([]float64, len(targets))
	for i := range out {
		out[i] = math.Inf(1)
	}
	remaining := len(targets)

	info, err := src.EdgeInfo(loc.Edge)
	if err != nil {
		return nil, err
	}
	w := info.W[costIdx]
	coster := costerOf(src)

	ds := sc.state()
	if err := ds.push(&ds.nodes, uint32(info.V), (1-loc.T)*w); err != nil {
		return nil, err
	}
	if !src.Directed() {
		if err := ds.push(&ds.nodes, uint32(info.U), loc.T*w); err != nil {
			return nil, err
		}
	}

	for remaining > 0 {
		it, ok := ds.heap.pop()
		if !ok {
			break
		}
		if ds.stale(&ds.nodes, it) {
			continue
		}
		v := graph.NodeID(it.id)
		ds.nodes.m[v].done = ds.gen
		for i, target := range targets { // a handful: the end-nodes of one edge
			if target == v {
				out[i] = it.key
				remaining--
			}
		}
		if remaining == 0 {
			break
		}
		entries, err := src.Adjacency(v)
		if err != nil {
			return nil, err
		}
		for i := range entries {
			we := entries[i].W[costIdx]
			if coster != nil {
				we = coster.EdgeCost(entries[i].Edge, costIdx)
			}
			if err := ds.push(&ds.nodes, uint32(entries[i].Neighbor), it.key+we); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// LocationCosts computes the full cost vector from loc to a point at
// fraction t on edge e, using d early-terminating NodeDistances probes plus
// the partial edge weights (and the direct same-edge walk when applicable).
// LocationCosts resets sc between probes (one state unit serves all d), so
// the caller must own it exclusively and must not have live expansion state
// drawn from it.
func LocationCosts(src Source, loc graph.Location, e graph.EdgeID, t float64, sc *Scratch) (costs []float64, err error) {
	info, err := src.EdgeInfo(e)
	if err != nil {
		return nil, err
	}
	d := src.D()
	costs = make([]float64, d)
	for i := 0; i < d; i++ {
		sc.reset() // reuse one state unit across the d probes
		dist, err := NodeDistances(src, i, loc, []graph.NodeID{info.U, info.V}, sc)
		if err != nil {
			return nil, err
		}
		w := info.W[i]
		c := dist[0] + t*w
		if !src.Directed() {
			c = math.Min(c, dist[1]+(1-t)*w)
		}
		if e == loc.Edge {
			if src.Directed() {
				if t >= loc.T {
					c = math.Min(c, (t-loc.T)*w)
				}
			} else {
				c = math.Min(c, math.Abs(t-loc.T)*w)
			}
		}
		costs[i] = c
	}
	return costs, nil
}
