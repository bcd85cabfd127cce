// Command mcnsoak drives sustained load at a /v1/query endpoint — a running
// mcnserve or mcngateway, or an in-process stack it spins up itself — and
// reports throughput plus p50/p99/p999 latency from a log-linear histogram.
//
// The generator is open-loop when -rate is set: arrival n is scheduled at
// start + n/rate no matter how the server is coping, and each sample measures
// scheduled-to-done time, so queueing delay shows up in the tail quantiles
// instead of silently slowing the generator (the coordinated-omission trap).
// With -rate 0 the loop is closed and probes peak throughput.
//
// Usage:
//
//	mcnsoak                                  # in-process single node, both codecs
//	mcnsoak -replicas 3 -codec binary        # in-process gateway over 3 replicas
//	mcnsoak -target http://host:8080 -clients 64 -rate 2000 -duration 60s
//	mcnsoak -json soak.json                  # also write a JSON report
//
// The request mix is generated from the synthetic workload (-scale, -queries,
// -seed); against an external -target those flags must match the dataset the
// server is serving, or the mix will query out-of-range edges.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"mcn"
	"mcn/internal/bench"
	"mcn/internal/cluster"
	"mcn/internal/serve"
)

func main() {
	log.SetFlags(0)
	var (
		target   = flag.String("target", "", "base URL of a running mcnserve or mcngateway (empty = start an in-process stack)")
		replicas = flag.Int("replicas", 0, "in-process only: front this many replicas with a gateway (0 = bare single node)")
		codec    = flag.String("codec", "both", "request codec: json, binary, or both")
		clients  = flag.Int("clients", 16, "concurrent senders")
		rate     = flag.Float64("rate", 0, "target arrival rate in requests/sec across all clients (0 = closed loop)")
		duration = flag.Duration("duration", 10*time.Second, "measurement window per codec")
		scale    = flag.Float64("scale", 0.05, "synthetic workload scale for the request mix and the in-process stack")
		queries  = flag.Int("queries", 32, "distinct query locations in the mix")
		seed     = flag.Int64("seed", 1, "workload seed")
		cache    = flag.Bool("cache", true, "in-process only: enable the serving-layer result cache")
		jsonPath = flag.String("json", "", "also write the rows as a JSON report (the mcnbench -json shape) to this file")
	)
	flag.Parse()

	var codecs []bool // false = json, true = binary
	switch *codec {
	case "json":
		codecs = []bool{false}
	case "binary":
		codecs = []bool{true}
	case "both":
		codecs = []bool{false, true}
	default:
		log.Fatalf("mcnsoak: unknown codec %q (want json, binary or both)", *codec)
	}

	cfg := bench.Config{Scale: *scale, Queries: *queries, Seed: *seed}
	w := cfg.DefaultWorkload()
	mem, err := bench.BuildMemDataset(w)
	if err != nil {
		log.Fatal(err)
	}
	reqs := bench.SoakRequests(mem.Queries, w)

	base := *target
	if base == "" {
		stack, err := startStack(mem, *replicas, *cache)
		if err != nil {
			log.Fatal(err)
		}
		defer stack.close()
		base = stack.url
		kind := "single node"
		if *replicas > 0 {
			kind = fmt.Sprintf("gateway over %d replicas", *replicas)
		}
		log.Printf("mcnsoak: in-process %s at %s", kind, base)
	}

	mode := "closed loop"
	if *rate > 0 {
		mode = fmt.Sprintf("open loop, %.0f req/s", *rate)
	}
	fmt.Printf("mcnsoak: target=%s clients=%d %s window=%v mix=%d requests\n\n",
		base, *clients, mode, *duration, len(reqs))

	pt := bench.Point{Param: fmt.Sprintf("clients=%d", *clients)}
	fmt.Printf("%-8s %10s %10s %9s %9s %9s %10s %8s\n",
		"codec", "completed", "queries/s", "p50 ms", "p99 ms", "p999 ms", "mean ms", "errors")
	for _, binary := range codecs {
		res, err := bench.RunSoak(bench.SoakConfig{
			BaseURL:  base,
			Binary:   binary,
			Clients:  *clients,
			Rate:     *rate,
			Duration: *duration,
			Requests: reqs,
			Warmup:   true,
		})
		if err != nil {
			log.Fatalf("mcnsoak: %v", err)
		}
		name := "json"
		if binary {
			name = "binary"
		}
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		mean := 0.0
		if res.Completed > 0 {
			mean = res.WallSeconds / float64(res.Completed) * 1000 * float64(*clients)
		}
		fmt.Printf("%-8s %10d %10.1f %9.3f %9.3f %9.3f %10.3f %8d\n",
			name, res.Completed, res.QPS, ms(res.P50), ms(res.P99), ms(res.P999), mean, res.Errors)
		pt.Rows = append(pt.Rows, bench.SoakRow(name, res))
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		report := bench.Report{
			Config: cfg,
			Host:   bench.CurrentHost(),
			Results: []bench.ExperimentResult{{
				ID:     "mcnsoak",
				Title:  "mcnsoak: /v1/query sustained load",
				Points: []bench.Point{pt},
			}},
		}
		if err := bench.WriteJSON(f, report); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote JSON report to %s\n", *jsonPath)
	}
}

// stack is the in-process serving tier mcnsoak stands up when no -target is
// given: one server, or a gateway fronting several replicas.
type stack struct {
	url     string
	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

func startStack(mem *bench.MemDataset, replicas int, cache bool) (*stack, error) {
	s := &stack{}
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(ln) //nolint:errcheck // closed on shutdown
		s.closers = append(s.closers, func() { srv.Close() })
		return "http://" + ln.Addr().String(), nil
	}
	node := func() (string, error) {
		net := mcn.FromGraph(mem.Graph)
		if cache {
			net.EnableResultCache(mcn.CacheOptions{})
		}
		return listen(serve.New(net, serve.Config{Timeout: time.Minute}).Handler())
	}
	if replicas <= 0 {
		url, err := node()
		if err != nil {
			return nil, err
		}
		s.url = url
		return s, nil
	}
	urls := make([]string, replicas)
	for i := range urls {
		url, err := node()
		if err != nil {
			s.close()
			return nil, err
		}
		urls[i] = url
	}
	m, err := cluster.NewMembership(urls, time.Second)
	if err != nil {
		s.close()
		return nil, err
	}
	gw := cluster.NewGateway(m, cluster.PolicyHash, time.Minute)
	url, err := listen(gw.Handler())
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = url
	return s, nil
}
