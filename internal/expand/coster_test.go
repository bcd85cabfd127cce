package expand

import (
	"math"
	"strings"
	"testing"

	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// costerSource wraps a MemorySource with an EdgeCoster scaling every cost,
// modelling an overlay source: the AdjEntry rows keep base costs (which the
// expansion must ignore) while EdgeCost and EdgeInfo serve the scaled ones.
type costerSource struct {
	*testnet.MemorySource
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
	base := testnet.NewMemorySource(g)
	scaled := &costerSource{MemorySource: testnet.NewMemorySource(g), factor: 3}

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
	for _, src := range []Source{scaled, acquire(t, scaled).Shared(scaled)} {
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

// The node distance table must honour the coster too: every distance
// triples with the 3x overlay, directly and through a SharedSource.
func TestDistancesHonoursEdgeCoster(t *testing.T) {
	g := lineGraph(t)
	loc := graph.Location{Edge: 0, T: 0}
	mem := testnet.NewMemorySource(g)
	base := distancesAfterDrain(t, mem, 0, loc, acquire(t, mem), nil)
	tripled := &costerSource{MemorySource: mem, factor: 3}
	for _, src := range []Source{tripled, acquire(t, tripled).Shared(tripled)} {
		scaled := distancesAfterDrain(t, src, 0, loc, acquire(t, src), nil)
		if len(scaled) < g.NumNodes() {
			t.Fatalf("table covers %d of %d nodes", len(scaled), g.NumNodes())
		}
		for v := 0; v < g.NumNodes(); v++ {
			if want := base[v] * 3; math.Abs(scaled[v]-want) > 1e-12 {
				t.Errorf("node %d: distance %g, want %g (3x base)", v, scaled[v], want)
			}
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
	return testnet.MustBuild(b)
}

// badCoster serves one edge at a cost no expansion may meet: a negative
// cost would push a node below the key the queue last popped, and a NaN one
// is no key at all. Every other edge keeps its graph cost.
type badCoster struct {
	*testnet.MemorySource
	bad  graph.EdgeID
	cost float64
}

func (c *badCoster) EdgeCost(e graph.EdgeID, costIdx int) float64 {
	if e == c.bad {
		return c.cost
	}
	return c.MemorySource.Graph().Edge(e).W[costIdx]
}

// A push below the queue's floor fails the step with an error instead of
// popping out of order: on the path 0–1–2–3 from node 0, expanding node 1
// (key 2) over the bad edge 1–2 must fail, so the facility on edge 2–3 is
// never reported.
func TestBadEdgeCostFailsStep(t *testing.T) {
	g := lineGraph(t)
	for _, cost := range []float64{-3, math.Inf(-1), math.NaN()} {
		src := &badCoster{MemorySource: testnet.NewMemorySource(g), bad: 1, cost: cost}
		x, err := newOn(t, src, 0, graph.Location{Edge: 0, T: 0})
		if err != nil {
			t.Fatal(err)
		}
		var reported []graph.FacilityID
		for {
			p, _, ok, err := x.Next()
			if err != nil {
				if !strings.Contains(err.Error(), "below the queue's floor") {
					t.Errorf("cost %g: error %q does not name the floor", cost, err)
				}
				break
			}
			if !ok {
				t.Fatalf("cost %g: expansion exhausted without an error, reported %v", cost, reported)
			}
			reported = append(reported, p)
		}
		if len(reported) != 1 || reported[0] != 0 {
			t.Errorf("cost %g: reported %v before the error, want only facility 0", cost, reported)
		}
	}
}
