package paretopath

import (
	"math/rand"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// ε-pruning on the exponential ladder must collapse the frontier far below
// the exact one while staying within the label budget that exact search
// blows through.
func TestEpsilonCollapsesLadder(t *testing.T) {
	b := graph.NewBuilder(2, false)
	const rungs = 14
	testnet.AddNodes(b, rungs+1)
	for i := 0; i < rungs; i++ {
		u, v := graph.NodeID(i), graph.NodeID(i+1)
		b.AddEdge(u, v, vec.Of(1, float64(2+i)))
		b.AddEdge(u, v, vec.Of(float64(2+i), 1))
	}
	g := testnet.MustBuild(b)

	exact, err := Paths(g, 0, rungs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Paths(g, 0, rungs, Options{Epsilon: 0.1, MaxLabels: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(approx) == 0 {
		t.Fatal("approximate search returned nothing")
	}
	if len(approx) >= len(exact) {
		t.Errorf("epsilon pruning did not shrink the frontier: %d vs %d", len(approx), len(exact))
	}
	// Approximate routes are still genuine paths with correctly summed
	// costs and mutually non-dominated.
	for i, p := range approx {
		sum := make(vec.Costs, 2)
		for _, e := range p.Edges {
			sum = sum.Add(g.Edge(e).W)
		}
		if !sum.Equal(p.Costs) {
			t.Fatalf("approx path %d: costs %v, edges sum to %v", i, p.Costs, sum)
		}
		for j, q := range approx {
			if i != j && q.Costs.Dominates(p.Costs) {
				t.Fatalf("approx result contains dominated path %d (by %d)", i, j)
			}
		}
	}
}

// Every exact Pareto vector must be covered by some approximate path within
// the compounded slack bound (1+ε)^L, where L bounds the prune chain length
// (use the path hop count of the exact front).
func TestEpsilonCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(900))
	const eps = 0.05
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(7)
		topo := testnet.RandomConnected(n, rng.Intn(6), rng)
		costs := gen.RandomIntegerCosts(topo, 2, 5, rng)
		g, err := gen.Assemble(topo, costs, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		from := graph.NodeID(rng.Intn(n))
		to := graph.NodeID(rng.Intn(n))

		exact, err := Paths(g, from, to, Options{})
		if err != nil {
			t.Fatal(err)
		}
		approx, err := Paths(g, from, to, Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if len(exact) == 0 {
			if len(approx) != 0 {
				t.Fatalf("trial %d: approx found paths where exact found none", trial)
			}
			continue
		}
		if len(approx) == 0 {
			t.Fatalf("trial %d: approx empty, exact has %d", trial, len(exact))
		}
		maxHops := 0
		for _, p := range exact {
			if len(p.Edges) > maxHops {
				maxHops = len(p.Edges)
			}
		}
		slack := 1.0
		for i := 0; i < maxHops+1; i++ {
			slack *= 1 + eps
		}
		for _, ep := range exact {
			covered := false
			for _, ap := range approx {
				ok := true
				for i := range ap.Costs {
					if ap.Costs[i] > ep.Costs[i]*slack+1e-9 {
						ok = false
						break
					}
				}
				if ok {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("trial %d: exact vector %v not covered within (1+ε)^%d by %d approx paths",
					trial, ep.Costs, maxHops+1, len(approx))
			}
		}
	}
}

func TestEpsilonZeroIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(6)
		topo := testnet.RandomConnected(n, rng.Intn(5), rng)
		costs := gen.RandomIntegerCosts(topo, 2, 4, rng)
		g, err := gen.Assemble(topo, costs, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Paths(g, 0, graph.NodeID(n-1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Paths(g, 0, graph.NodeID(n-1), Options{Epsilon: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !equalCostSets(costsOf(a), costsOf(b)) {
			t.Fatalf("trial %d: Epsilon:0 differs from default", trial)
		}
	}
}
