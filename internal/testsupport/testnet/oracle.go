// Package testnet provides slow, obviously-correct reference computations
// used as oracles by tests of the expansion engine and the query algorithms,
// and the generator of the hard-case instances they run on (Generate).
// Every oracle is deliberately implemented with different techniques than
// the production code (Bellman-Ford relaxation instead of Dijkstra, O(n²)
// skyline scans, sorted rankings) so that agreement is meaningful.
package testnet

import (
	"math"
	"sort"

	"mcn/internal/graph"
	"mcn/internal/vec"
)

// NodeCosts computes, by Bellman-Ford relaxation to a fixpoint, the minimum
// cost from loc to every node under cost type costIdx. Unreachable nodes get
// +Inf.
func NodeCosts(g *graph.Graph, loc graph.Location, costIdx int) []float64 {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	qe := g.Edge(loc.Edge)
	w := qe.W[costIdx]
	dist[qe.V] = math.Min(dist[qe.V], (1-loc.T)*w)
	if !g.Directed() {
		dist[qe.U] = math.Min(dist[qe.U], loc.T*w)
	}
	for changed := true; changed; {
		changed = false
		for e := 0; e < g.NumEdges(); e++ {
			edge := g.Edge(graph.EdgeID(e))
			we := edge.W[costIdx]
			if dist[edge.U]+we < dist[edge.V] {
				dist[edge.V] = dist[edge.U] + we
				changed = true
			}
			if !g.Directed() && dist[edge.V]+we < dist[edge.U] {
				dist[edge.U] = dist[edge.V] + we
				changed = true
			}
		}
	}
	return dist
}

// FacilityCosts computes the exact cost from loc to every facility under
// cost type costIdx: the best of entering via either end-node of the
// facility's edge, or walking directly along the query edge when the
// facility shares it.
func FacilityCosts(g *graph.Graph, loc graph.Location, costIdx int) []float64 {
	dist := NodeCosts(g, loc, costIdx)
	out := make([]float64, g.NumFacilities())
	for p := 0; p < g.NumFacilities(); p++ {
		f := g.Facility(graph.FacilityID(p))
		edge := g.Edge(f.Edge)
		w := edge.W[costIdx]
		best := dist[edge.U] + f.T*w
		if !g.Directed() {
			best = math.Min(best, dist[edge.V]+(1-f.T)*w)
		}
		if f.Edge == loc.Edge {
			if g.Directed() {
				if f.T >= loc.T {
					best = math.Min(best, (f.T-loc.T)*w)
				}
			} else {
				best = math.Min(best, math.Abs(f.T-loc.T)*w)
			}
		}
		out[p] = best
	}
	return out
}

// AllCosts returns the full cost vector of every facility.
func AllCosts(g *graph.Graph, loc graph.Location) []vec.Costs {
	out := make([]vec.Costs, g.NumFacilities())
	for p := range out {
		out[p] = make(vec.Costs, g.D())
	}
	for i := 0; i < g.D(); i++ {
		ci := FacilityCosts(g, loc, i)
		for p := range ci {
			out[p][i] = ci[p]
		}
	}
	return out
}

// Skyline returns the exact MCN skyline facility ids (sorted) by an O(n²)
// scan over the oracle cost vectors (see SkylineOf).
func Skyline(g *graph.Graph, loc graph.Location) []graph.FacilityID {
	return SkylineOf(AllCosts(g, loc))
}

// SkylineOf returns, sorted, the indices of costs that no other vector
// dominates. Vectors that are +Inf throughout are excluded (they dominate
// nothing, but reporting them as "preferred" would be meaningless, and no
// network expansion can discover them); vectors +Inf in some components
// participate normally, matching the production semantics. Exact
// duplicates are all kept: which of them a progressive skyline reports is
// its documented tie rule, not the definition's.
func SkylineOf(costs []vec.Costs) []graph.FacilityID {
	var out []graph.FacilityID
	for p := range costs {
		if allInf(costs[p]) {
			continue
		}
		dominated := false
		for q := range costs {
			if q != p && costs[q].Dominates(costs[p]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, graph.FacilityID(p))
		}
	}
	return out
}

func allInf(c vec.Costs) bool {
	for _, v := range c {
		if !math.IsInf(v, 1) {
			return false
		}
	}
	return true
}

// Ranked is one entry of a ranking oracle: a facility and its score.
type Ranked struct {
	ID    graph.FacilityID
	Score float64
}

// RankOf returns every facility whose vector is finite in at least one
// component, in ascending (score, id) order. Facilities reachable under no
// cost type cannot be discovered by network expansion and are excluded,
// matching the production semantics. Its first k entries are the top-k
// answer, whose tie rule is the id; the whole of it is what a drained
// incremental top-k query enumerates (which may report a tie group in any
// order).
func RankOf(costs []vec.Costs, agg vec.Aggregate) []Ranked {
	var out []Ranked
	for p, c := range costs {
		if !allInf(c) {
			out = append(out, Ranked{ID: graph.FacilityID(p), Score: agg.Score(c)})
		}
	}
	sortRanked(out)
	return out
}

func sortRanked(r []Ranked) {
	sort.Slice(r, func(i, j int) bool {
		if r[i].Score != r[j].Score {
			return r[i].Score < r[j].Score
		}
		return r[i].ID < r[j].ID
	})
}

// Nearest returns the k facilities closest to loc under cost type costIdx,
// by ascending (cost, id), over those reachable under it. The score is the
// cost (ids break ties here; a nearest-neighbour query may report a tie
// group in any order).
func Nearest(g *graph.Graph, loc graph.Location, costIdx, k int) []Ranked {
	var out []Ranked
	for p, c := range FacilityCosts(g, loc, costIdx) {
		if !math.IsInf(c, 1) {
			out = append(out, Ranked{ID: graph.FacilityID(p), Score: c})
		}
	}
	sortRanked(out)
	return out[:min(k, len(out))]
}

// Within returns, sorted, the facilities whose whole cost vector fits the
// budget component-wise.
func Within(g *graph.Graph, loc graph.Location, budget vec.Costs) []graph.FacilityID {
	var out []graph.FacilityID
	for p, c := range AllCosts(g, loc) {
		if c.WeaklyDominates(budget) {
			out = append(out, graph.FacilityID(p))
		}
	}
	return out
}

// MultiSourceCosts returns, for every facility, the vector of its cost
// under costIdx from each of locs: the vectors a multi-source skyline or
// top-k query judges facilities by.
func MultiSourceCosts(g *graph.Graph, costIdx int, locs []graph.Location) []vec.Costs {
	out := make([]vec.Costs, g.NumFacilities())
	for p := range out {
		out[p] = make(vec.Costs, len(locs))
	}
	for i, loc := range locs {
		for p, c := range FacilityCosts(g, loc, costIdx) {
			out[p][i] = c
		}
	}
	return out
}
