// Fleet dispatch: a delivery operator answers preference queries for a whole
// fleet at once. Every courier standing somewhere on the network wants the
// skyline of depots under (driving minutes, fuel cost, toll dollars); the
// dispatcher wants them all answered now, not one by one.
//
// This example drives the concurrent batch API: Network.Batch for the
// homogeneous fan-out and for a mixed workload, and a long-lived
// Executor with per-query timeouts and latency statistics — the same
// machinery the mcnserve HTTP server puts behind its endpoints.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"mcn"
)

func main() {
	// A mid-size synthetic city: ~8000 intersections, 900 depots, three cost
	// types per road segment.
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 8_000, Facilities: 900, D: 3, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	net := mcn.FromGraph(g)
	couriers := mcn.RandomQueries(g, 24, 99)
	ctx := context.Background()

	// 1. Fan out one skyline per courier across all CPUs.
	start := time.Now()
	skylines := skylineRequests(couriers, len(couriers), mcn.WithEngine(mcn.CEA))
	total := 0
	for _, resp := range net.Batch(ctx, skylines, mcn.ExecutorConfig{Workers: runtime.GOMAXPROCS(0)}) {
		if resp.Err != nil {
			log.Fatal(resp.Err)
		}
		total += len(resp.Result.Facilities)
	}
	fmt.Printf("— fleet skyline — %d couriers, %d undominated depots total, %.1fms wall\n",
		len(couriers), total, time.Since(start).Seconds()*1000)

	// 2. A mixed batch: some couriers want skylines, some a ranked top-3
	// under their own preference weights, one a strict budget filter.
	agg := mcn.WeightedSum(0.6, 0.3, 0.1)
	reqs := []mcn.BatchRequest{
		mcn.SkylineRequest(couriers[0], mcn.WithEngine(mcn.CEA)),
		mcn.TopKRequest(couriers[1], agg, 3),
		mcn.NearestRequest(couriers[2], 0, 5),
		mcn.WithinRequest(couriers[3], mcn.Of(40, 40, 40)),
	}
	fmt.Println("— mixed batch —")
	for i, resp := range net.Batch(ctx, reqs, mcn.ExecutorConfig{Workers: 4}) {
		if resp.Err != nil {
			log.Fatal(resp.Err)
		}
		fmt.Printf("  %-8s %2d facilities in %v\n",
			reqs[i].Kind, len(resp.Result.Facilities), resp.Latency.Round(time.Microsecond))
	}

	// 3. A long-lived executor, as a server would hold: bounded parallelism,
	// a default per-query timeout, aggregate latency counters.
	exec := net.NewExecutor(mcn.ExecutorConfig{Workers: 8, Timeout: 2 * time.Second})
	for _, c := range couriers {
		if resp := exec.Do(ctx, mcn.TopKRequest(c, agg, 3)); resp.Err != nil {
			log.Fatal(resp.Err)
		}
	}
	s := exec.Stats()
	fmt.Printf("— executor — %d queries, mean %v, max %v\n",
		s.Queries(), s.MeanLatency().Round(time.Microsecond), s.MaxLatency.Round(time.Microsecond))

	// 4. Cancellation: a dispatcher that waits at most 1ms abandons the rest
	// of its batch; queries abort mid-expansion instead of running on.
	shortCtx, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	responses := net.Batch(shortCtx, skylineRequests(couriers, 40), mcn.ExecutorConfig{Workers: 2})
	done, aborted := 0, 0
	for _, resp := range responses {
		if resp.Err != nil {
			aborted++
		} else {
			done++
		}
	}
	fmt.Printf("— 1ms deadline — %d answered, %d aborted early\n", done, aborted)
}

func skylineRequests(locs []mcn.Location, n int, opts ...mcn.Option) []mcn.BatchRequest {
	reqs := make([]mcn.BatchRequest, n)
	for i := range reqs {
		reqs[i] = mcn.SkylineRequest(locs[i%len(locs)], opts...)
	}
	return reqs
}
