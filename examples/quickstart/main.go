// Quickstart: build a small two-cost network, stream a skyline, run a
// top-k and an incremental top-k query, and round-trip the network through
// the disk storage format. Every query takes a context: cancel it or give
// it a deadline and the query aborts mid-search.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mcn"
)

func main() {
	// A toy downtown: 4 intersections, 5 road segments. Every edge carries
	// two costs: (driving minutes, toll dollars).
	b := mcn.NewBuilder(2, false)
	a := b.AddNode(0, 0)
	c := b.AddNode(1, 0)
	d := b.AddNode(1, 1)
	e := b.AddNode(0, 1)

	ac := b.AddEdge(a, c, mcn.Of(5, 2)) // fast toll road
	cd := b.AddEdge(c, d, mcn.Of(4, 1))
	b.AddEdge(a, e, mcn.Of(9, 0)) // slow free road
	ed := b.AddEdge(e, d, mcn.Of(8, 0))
	b.AddEdge(c, e, mcn.Of(3, 3))

	// Three coffee shops on the way.
	shops := []mcn.FacilityID{
		b.AddFacility(cd, 0.5), // via the toll road
		b.AddFacility(ed, 0.5), // via the free road
		b.AddFacility(ac, 0.9), // close, small toll
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	net := mcn.FromGraph(g)
	ctx := context.Background()
	q, err := mcn.LocationAtNode(g, a) // we stand at intersection a
	if err != nil {
		log.Fatal(err)
	}

	// 1. Skyline, streamed: shops for which no other shop is both faster
	// AND cheaper to reach, yielded the moment each one is confirmed.
	// Breaking out of the loop would abort the remaining search.
	fmt.Println("— skyline, streamed as confirmed (minutes, dollars) —")
	for f, err := range net.SkylineSeq(ctx, q, mcn.WithEngine(mcn.CEA)) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  shop %d: %v\n", f.ID, f.Costs)
	}

	// 2. Top-k with a preference: time matters 4x as much as money.
	agg := mcn.WeightedSum(0.8, 0.2)
	top, err := net.TopK(ctx, q, agg, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("— top-2 for f = 0.8·time + 0.2·toll —")
	for i, f := range top.Facilities {
		fmt.Printf("  #%d shop %d: costs %v, score %.2f\n", i+1, f.ID, f.Costs, f.Score)
	}

	// 3. Incremental: "give me the next best" without fixing k. TopKSeq
	// pulls results on demand; stop ranging whenever you have enough.
	fmt.Println("— incremental ranking —")
	rank := 1
	for f, err := range net.TopKSeq(ctx, q, agg) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  rank %d: shop %d (score %.2f)\n", rank, f.ID, f.Score)
		rank++
	}

	// 4. The same network as a disk database with a 1% LRU buffer.
	dir, err := os.MkdirTemp("", "mcn-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "downtown.mcn")
	if err := mcn.CreateDatabase(g, path); err != nil {
		log.Fatal(err)
	}
	db, err := mcn.OpenDatabaseOptions(path, 0.01, mcn.PoolOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	diskSky, err := db.Skyline(ctx, q, mcn.WithEngine(mcn.CEA))
	if err != nil {
		log.Fatal(err)
	}
	io, _ := db.IOStats()
	fmt.Printf("— disk run — skyline size %d, I/O: %v\n", len(diskSky.Facilities), io)

	_ = shops
}
