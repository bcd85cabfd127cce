// Logistics: the paper's Figure 1 scenario. Goods leave a port for one of
// several candidate warehouses. Dairy products need the fastest route; bulk
// goods the cheapest (toll-wise). The MCN skyline shortlists warehouses that
// are optimal for some mix, a top-k query ranks them for the observed 90/10
// sensitive/bulk traffic split, and Pareto routing materialises the actual
// route options to the winner.
package main

import (
	"context"
	"fmt"
	"log"

	"mcn"
	"mcn/examples/logistics/paretopath"
)

func main() {
	// Two cost types per road segment: (travel minutes, toll dollars).
	b := mcn.NewBuilder(2, false)

	port := b.AddNode(0, 0)
	j1 := b.AddNode(2, 1)   // highway junction (tolled, fast)
	j2 := b.AddNode(2, -1)  // surface streets (free, slow)
	j3 := b.AddNode(4, 0)   // ring road
	east := b.AddNode(6, 0) // eastern industrial park

	hw1 := b.AddEdge(port, j1, mcn.Of(6, 1)) // highway with toll gate
	hw2 := b.AddEdge(j1, j3, mcn.Of(5, 1))   // second toll gate
	st1 := b.AddEdge(port, j2, mcn.Of(12, 0))
	st2 := b.AddEdge(j2, j3, mcn.Of(10, 0))
	ring := b.AddEdge(j3, east, mcn.Of(8, 0))
	b.AddEdge(j1, j2, mcn.Of(4, 1)) // tolled connector

	// Candidate warehouse sites. Placing them at T=1.0 keeps toll costs
	// whole (the toll gate sits at the start of each highway segment).
	warehouses := map[mcn.FacilityID]string{
		b.AddFacility(hw1, 1.0):  "W-highway (past toll gate)",
		b.AddFacility(st2, 0.5):  "W-streets (cheap corridor)",
		b.AddFacility(ring, 0.4): "W-ring (far east)",
		b.AddFacility(hw2, 1.0):  "W-junction (past 2nd toll)",
		b.AddFacility(st1, 0.9):  "W-portside (slow but free)",
	}

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	net := mcn.FromGraph(g)
	ctx := context.Background()
	q, err := mcn.LocationAtNode(g, port)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Candidate warehouses reachable from the port (minutes, tolls $):")
	sky, err := net.Skyline(ctx, q, mcn.WithEngine(mcn.CEA))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSkyline — no other site is both faster AND cheaper:")
	for _, f := range sky.Facilities {
		fmt.Printf("  %-28s %v\n", warehouses[f.ID], f.Costs)
	}
	fmt.Printf("(search tracked %d of %d sites, %d NN pops)\n",
		sky.Stats.Tracked, g.NumFacilities(), sky.Stats.Pops)

	// 90% of loads are time-sensitive, 10% cost-sensitive.
	agg := mcn.WeightedSum(0.9, 0.1)
	top, err := net.TopK(ctx, q, agg, 3, mcn.WithEngine(mcn.CEA))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTop-3 for f = 0.9·time + 0.1·toll:")
	for i, f := range top.Facilities {
		fmt.Printf("  #%d %-28s score %.2f  %v\n", i+1, warehouses[f.ID], f.Score, f.Costs)
	}

	// Route options to the winner: the Pareto set over (time, toll) —
	// typically the tolled fast route and the free slow one. Path skylines
	// are not an MCN query, so the search runs on the graph itself.
	winner := top.Facilities[0].ID
	wf := g.Facility(winner)
	routes, err := paretopath.PathsToLocation(g, port, mcn.Location{Edge: wf.Edge, T: wf.T},
		paretopath.Options{Interrupt: ctx.Err})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPareto route options from the port to %s:\n", warehouses[winner])
	for _, r := range routes {
		fmt.Printf("  via edges %v — full-edge costs %v\n", r.Edges, r.Costs)
	}
}
