package core

import (
	"context"
	"math/rand"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
)

// TestSeqBreakStopsPerPop pins the early-break granularity of the skyline
// driver: once a streaming consumer breaks out of its range loop, the
// driver must stop at the next per-pop check, performing zero further
// source accesses — it must NOT finish the in-flight round, whose remaining
// expansions can each expand arbitrarily many nodes before their next
// facility. Before the per-pop checks the overshoot on this workload was
// hundreds of adjacency reads per abandoned stream.
func TestSeqBreakStopsPerPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	topo := testnet.RandomConnected(400, 250, rng)
	costs := gen.AssignCosts(topo, 3, gen.AntiCorrelated, rng)
	pls := gen.UniformFacilities(topo, 25, rng)
	g, err := gen.Assemble(topo, costs, pls, false)
	if err != nil {
		t.Fatal(err)
	}
	src := testnet.NewMemorySource(g)

	for qi := 0; qi < 5; qi++ {
		loc := graph.Location{Edge: graph.EdgeID(rng.Intn(g.NumEdges())), T: rng.Float64()}
		var atBreak testnet.Counter
		yields := 0
		for _, err := range SkylineSeq(context.Background(), src, loc, Options{}) {
			if err != nil {
				t.Fatal(err)
			}
			yields++
			atBreak = src.Count.Snapshot()
			break
		}
		if yields == 0 {
			continue // no facility reachable from this location
		}
		after := src.Count.Snapshot()
		if overshoot := after.Total() - atBreak.Total(); overshoot != 0 {
			t.Fatalf("query %d: %d source accesses after the consumer broke (adjacency %d→%d); "+
				"the driver must honour a break at the next pop, not the next round",
				qi, overshoot, atBreak.Adjacency, after.Adjacency)
		}
	}
}
