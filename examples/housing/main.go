// Housing: the paper's second motivating scenario. A university must pick a
// residential block for student/instructor housing. Commuters either walk or
// drive, and the shortest walking path differs from the shortest driving
// path (one-way streets, pedestrian zones). The example runs on a synthetic
// city (the paper-scale generator, scaled down), demonstrates the skyline
// over (walking, driving) reachability, ranks blocks for a 70/30
// walking/driving population, and shows dynamic maintenance as blocks enter
// and leave the market.
package main

import (
	"context"
	"fmt"
	"log"

	"mcn"
)

func main() {
	// d=2: cost 0 = walking minutes, cost 1 = driving minutes. The
	// anti-correlated generator captures the tension between the two (roads
	// good for cars are often bad for pedestrians).
	g, err := mcn.Synthetic(mcn.SyntheticConfig{
		Nodes:      8_000,
		Facilities: 400, // residential blocks on the market
		Clusters:   6,
		D:          2,
		Dist:       "anti-correlated",
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}
	net := mcn.FromGraph(g)
	ctx := context.Background()

	// The university sits at a fixed network location.
	university := mcn.RandomQueries(g, 1, 7)[0]

	sky, err := net.Skyline(ctx, university, mcn.WithEngine(mcn.CEA))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("City: %d intersections, %d road segments, %d blocks on the market\n",
		g.NumNodes(), g.NumEdges(), g.NumFacilities())
	fmt.Printf("\nSkyline blocks (walk, drive) — candidates for ANY commuter mix: %d\n", len(sky.Facilities))
	for i, f := range sky.Facilities {
		if i == 5 {
			fmt.Printf("  … and %d more\n", len(sky.Facilities)-5)
			break
		}
		fmt.Printf("  block %4d: walk %6.1f, drive %6.1f\n", f.ID, f.Costs[0], f.Costs[1])
	}
	fmt.Printf("(local search: tracked %d of %d blocks, expanded %d nodes)\n",
		sky.Stats.Tracked, g.NumFacilities(), sky.Stats.NodeExpansions)

	// 70% of residents walk, 30% drive.
	agg := mcn.WeightedSum(0.7, 0.3)
	top, err := net.TopK(ctx, university, agg, 4, mcn.WithEngine(mcn.CEA))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTop-4 blocks for f = 0.7·walk + 0.3·drive:")
	for i, f := range top.Facilities {
		fmt.Printf("  #%d block %4d: score %6.1f (walk %6.1f, drive %6.1f)\n",
			i+1, f.ID, f.Score, f.Costs[0], f.Costs[1])
	}

	// The market moves: one block sells, a new one is listed right next to
	// campus. Maintain the result without recomputing from scratch.
	m, err := net.Maintain(ctx, university)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close() // no further inserts; the results stay readable
	sold := top.Facilities[0].ID
	if err := m.Delete(mcn.Handle(sold)); err != nil {
		log.Fatal(err)
	}
	newBlock, err := m.Insert(university.Edge, university.T)
	if err != nil {
		log.Fatal(err)
	}
	entries, scores, err := m.TopK(agg, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAfter block %d sold and block %d was listed on campus:\n", sold, newBlock)
	for i, e := range entries {
		fmt.Printf("  #%d block %4d: score %6.1f\n", i+1, e.Handle, scores[i])
	}
}
