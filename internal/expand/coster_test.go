package expand

import (
	"math"
	"testing"

	"mcn/internal/graph"
	"mcn/internal/vec"
)

// costerSource wraps a MemorySource with an EdgeCoster scaling every cost,
// modelling an overlay source: the AdjEntry rows keep base costs (which the
// expansion must ignore) while EdgeCost and EdgeInfo serve the scaled ones.
type costerSource struct {
	*MemorySource
	factor float64
}

func (c *costerSource) EdgeCost(e graph.EdgeID, costIdx int) float64 {
	return c.MemorySource.Graph().Edge(e).W[costIdx] * c.factor
}

func (c *costerSource) EdgeInfo(e graph.EdgeID) (graph.EdgeInfo, error) {
	info, err := c.MemorySource.EdgeInfo(e)
	if err != nil {
		return info, err
	}
	w := make(vec.Costs, len(info.W))
	for i := range w {
		w[i] = info.W[i] * c.factor
	}
	info.W = w
	return info, nil
}

// An expansion over an EdgeCoster source must take every arc weight from
// EdgeCost, not from the entries' embedded W slices — reported costs come
// out scaled, in the same pop order, directly and through a SharedSource
// (costerOf must see through the per-query sharing layer).
func TestExpansionHonoursEdgeCoster(t *testing.T) {
	g := lineGraph(t)
	loc := graph.Location{Edge: 0, T: 0}
	base := NewMemorySource(g)
	scaled := &costerSource{MemorySource: NewMemorySource(g), factor: 3}

	collect := func(src Source) (ids []graph.FacilityID, costs []float64) {
		x, err := newOn(t, src, 0, loc)
		if err != nil {
			t.Fatal(err)
		}
		for {
			p, c, ok, err := x.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return ids, costs
			}
			ids = append(ids, p)
			costs = append(costs, c)
		}
	}

	baseIDs, baseCosts := collect(base)
	if len(baseIDs) == 0 {
		t.Fatal("no facilities popped")
	}
	for _, src := range []Source{scaled, NewSharedSource(scaled)} {
		ids, costs := collect(src)
		if len(ids) != len(baseIDs) {
			t.Fatalf("popped %d facilities, want %d", len(ids), len(baseIDs))
		}
		for i := range ids {
			if ids[i] != baseIDs[i] {
				t.Errorf("pop %d: facility %d, want %d (order must be unchanged)", i, ids[i], baseIDs[i])
			}
			if want := baseCosts[i] * 3; math.Abs(costs[i]-want) > 1e-12 {
				t.Errorf("pop %d: cost %g, want %g (3x base)", i, costs[i], want)
			}
		}
	}
}

// NodeDistances must honour the coster too: probe distances triple with the
// 3x overlay.
func TestNodeDistancesHonoursEdgeCoster(t *testing.T) {
	g := lineGraph(t)
	loc := graph.Location{Edge: 0, T: 0}
	targets := []graph.NodeID{2, 3}
	mem := NewMemorySource(g)
	base, err := NodeDistances(mem, 0, loc, targets, acquire(t, mem))
	if err != nil {
		t.Fatal(err)
	}
	tripled := &costerSource{MemorySource: mem, factor: 3}
	scaled, err := NodeDistances(tripled, 0, loc, targets, acquire(t, tripled))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range targets {
		if want := base[i] * 3; math.Abs(scaled[i]-want) > 1e-12 {
			t.Errorf("node %d: distance %g, want %g (3x base)", v, scaled[i], want)
		}
	}
}

// lineGraph is a 4-node path with facilities spread along it.
func lineGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(1, false)
	n := make([]graph.NodeID, 4)
	for i := range n {
		n[i] = b.AddNode(float64(i), 0)
	}
	e01 := b.AddEdge(n[0], n[1], vec.Of(2))
	b.AddEdge(n[1], n[2], vec.Of(3))
	e23 := b.AddEdge(n[2], n[3], vec.Of(4))
	b.AddFacility(e01, 0.5)
	b.AddFacility(e23, 0.25)
	return b.MustBuild()
}
