// Command mcnquery runs ad-hoc preference queries against a database written
// by mcngen (or mcn.CreateDatabase).
//
// Usage:
//
//	mcnquery -db city.mcn -query skyline -edge 123 -t 0.5
//	mcnquery -db city.mcn -query topk -k 4 -weights 0.7,0.1,0.1,0.1
//	mcnquery -db city.mcn -query incremental -n 10 -weights 1,1,1,1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"strconv"
	"strings"

	"mcn"
)

func main() {
	log.SetFlags(0)
	var (
		db      = flag.String("db", "network.mcn", "database path")
		query   = flag.String("query", "skyline", "query type: skyline|topk|incremental|baseline")
		edge    = flag.Int("edge", 0, "query location: edge id")
		tFrac   = flag.Float64("t", 0.5, "query location: fraction along the edge")
		k       = flag.Int("k", 4, "k for top-k")
		n       = flag.Int("n", 10, "results to pull for incremental queries")
		weights = flag.String("weights", "", "aggregate coefficients, comma-separated (default: uniform)")
		engine  = flag.String("engine", "cea", "engine: lsa|cea")
		buffer  = flag.Float64("buffer", 0.01, "buffer pool fraction of database pages")
		timeout = flag.Duration("timeout", 0, "per-query deadline (0 = none), e.g. 500ms")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	net, err := mcn.OpenDatabaseOptions(*db, *buffer, mcn.PoolOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()

	var eng mcn.Engine
	switch strings.ToLower(*engine) {
	case "lsa":
		eng = mcn.LSA
	case "cea":
		eng = mcn.CEA
	default:
		log.Fatalf("unknown engine %q", *engine)
	}

	loc := mcn.Location{Edge: mcn.EdgeID(*edge), T: *tFrac}
	agg, err := parseWeights(*weights, net.D())
	if err != nil {
		log.Fatal(err)
	}

	switch *query {
	case "skyline":
		res, err := net.Skyline(ctx, loc, mcn.WithEngine(eng))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("skyline: %d facilities\n", len(res.Facilities))
		for _, f := range res.Facilities {
			fmt.Printf("  facility %d: %v\n", f.ID, f.Costs)
		}
		printStats(net, res.Stats)
	case "topk":
		res, err := net.TopK(ctx, loc, agg, *k, mcn.WithEngine(eng))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("top-%d:\n", *k)
		for i, f := range res.Facilities {
			fmt.Printf("  #%d facility %d: score %.4f %v\n", i+1, f.ID, f.Score, f.Costs)
		}
		printStats(net, res.Stats)
	case "incremental":
		it, err := net.TopKIterator(ctx, loc, agg, mcn.WithEngine(eng))
		if err != nil {
			log.Fatal(err)
		}
		defer it.Close()
		for i := 0; i < *n; i++ {
			f, ok, err := it.Next()
			if err != nil {
				log.Fatal(err)
			}
			if !ok {
				fmt.Println("  (exhausted)")
				break
			}
			fmt.Printf("  #%d facility %d: score %.4f %v\n", i+1, f.ID, f.Score, f.Costs)
		}
		printStats(net, it.Stats())
	case "baseline":
		res, err := net.BaselineSkyline(ctx, loc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline skyline: %d facilities\n", len(res.Facilities))
		printStats(net, res.Stats)
	default:
		log.Fatalf("unknown query type %q", *query)
	}
}

func parseWeights(s string, d int) (mcn.Aggregate, error) {
	if s == "" {
		coef := make([]float64, d)
		for i := range coef {
			coef[i] = 1
		}
		return mcn.WeightedSum(coef...), nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != d {
		return nil, fmt.Errorf("got %d weights, network has %d cost types", len(parts), d)
	}
	coef := make([]float64, d)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("weight %d: %v", i, err)
		}
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("weight %d: %q is not a finite non-negative number", i, p)
		}
		coef[i] = v
	}
	return mcn.WeightedSum(coef...), nil
}

func printStats(net *mcn.Network, s mcn.Stats) {
	fmt.Printf("stats: %d NN pops (%d in growing), %d node expansions, %d facilities tracked\n",
		s.Pops, s.GrowingPops, s.NodeExpansions, s.Tracked)
	if io, ok := net.IOStats(); ok {
		fmt.Printf("I/O:   %v\n", io)
	}
}
