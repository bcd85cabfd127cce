package mcn_test

import (
	"context"
	"fmt"

	"mcn"
)

// buildDowntown assembles the small two-cost network used by the examples:
// costs are (driving minutes, toll dollars).
func buildDowntown() (*mcn.Graph, mcn.Location) {
	b := mcn.NewBuilder(2, false)
	a := b.AddNode(0, 0)
	c := b.AddNode(1, 0)
	d := b.AddNode(1, 1)
	e := b.AddNode(0, 1)
	ac := b.AddEdge(a, c, mcn.Of(5, 2))
	cd := b.AddEdge(c, d, mcn.Of(4, 1))
	b.AddEdge(a, e, mcn.Of(9, 0))
	ed := b.AddEdge(e, d, mcn.Of(8, 0))
	b.AddFacility(cd, 0.5) // shop 0: via the toll road
	b.AddFacility(ed, 0.5) // shop 1: via the free road
	b.AddFacility(ac, 0.9) // shop 2: close, small toll
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	loc, _ := mcn.LocationAtNode(g, a)
	return g, loc
}

func ExampleNetwork_Skyline() {
	g, q := buildDowntown()
	net := mcn.FromGraph(g)

	res, _ := net.Skyline(context.Background(), q, mcn.WithEngine(mcn.CEA))
	fmt.Println("skyline size:", len(res.Facilities))
	// Output:
	// skyline size: 3
}

func ExampleNetwork_SkylineSeq() {
	g, q := buildDowntown()
	net := mcn.FromGraph(g)

	// Stream skyline members as they are confirmed; break to stop early.
	count := 0
	for _, err := range net.SkylineSeq(context.Background(), q) {
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		count++
	}
	fmt.Println("streamed facilities:", count)
	// Output:
	// streamed facilities: 3
}

func ExampleNetwork_TopK() {
	g, q := buildDowntown()
	net := mcn.FromGraph(g)

	// Time matters four times as much as tolls.
	res, _ := net.TopK(context.Background(), q, mcn.WeightedSum(0.8, 0.2), 2)
	for i, f := range res.Facilities {
		fmt.Printf("#%d shop %d score %.2f\n", i+1, f.ID, f.Score)
	}
	// Output:
	// #1 shop 2 score 3.84
	// #2 shop 0 score 5.70
}

func ExampleNetwork_TopKSeq() {
	g, q := buildDowntown()
	net := mcn.FromGraph(g)

	// Pull next-best results on demand, without fixing k in advance.
	for f, err := range net.TopKSeq(context.Background(), q, mcn.WeightedSum(0.8, 0.2)) {
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("shop %d: %.2f\n", f.ID, f.Score)
		if f.Score > 6 {
			break // enough — aborts the remaining search
		}
	}
	// Output:
	// shop 2: 3.84
	// shop 0: 5.70
	// shop 1: 10.40
}

func ExampleNetwork_TopKIterator() {
	g, q := buildDowntown()
	net := mcn.FromGraph(g)

	it, _ := net.TopKIterator(context.Background(), q, mcn.WeightedSum(0.8, 0.2))
	defer it.Close() // returns the iterator's pooled expansion state
	for {
		f, ok, _ := it.Next()
		if !ok {
			break
		}
		fmt.Printf("shop %d: %.2f\n", f.ID, f.Score)
	}
	// Output:
	// shop 2: 3.84
	// shop 0: 5.70
	// shop 1: 10.40
}

func ExampleNetwork_Within() {
	g, q := buildDowntown()
	net := mcn.FromGraph(g)

	// Everything reachable in at most 8 minutes and 2 dollars.
	res, _ := net.Within(context.Background(), q, mcn.Of(8, 2))
	fmt.Println("within budget:", len(res.Facilities))
	// Output:
	// within budget: 2
}

func ExampleNetwork_Nearest() {
	g, q := buildDowntown()
	net := mcn.FromGraph(g)

	nn, _ := net.Nearest(context.Background(), q, 0, 1) // nearest by driving time
	fmt.Printf("nearest shop: %d at %.1f min\n", nn[0].ID, nn[0].Score)
	// Output:
	// nearest shop: 2 at 4.5 min
}
