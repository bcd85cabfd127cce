// Command mcnserve serves preference queries over a multi-cost network as a
// JSON HTTP API. It answers skyline, top-k, k-nearest, budget range,
// multi-source and time-dependent period queries concurrently against one
// shared network — either a disk database written by mcngen, or a synthetic
// in-memory network generated at startup.
//
// Usage:
//
//	mcnserve -db city.mcn                  # serve a disk database
//	mcnserve -synthetic -nodes 20000       # serve a generated network
//	mcnserve -db city.mcn -workers 16 -timeout 2s -addr :9090
//
// Endpoints:
//
//	GET /skyline?edge=123&t=0.5&engine=cea          (stream=1 for NDJSON)
//	GET /topk?edge=123&t=0.5&k=4&weights=0.7,0.1,0.1,0.1   (stream=1 for NDJSON)
//	GET /nearest?edge=123&t=0.5&cost=0&k=5
//	GET /within?edge=123&t=0.5&budget=10,20,30,40
//	GET /multisource/skyline?cost=0&edges=3,17,42&ts=0.5,0.2,0.9
//	GET /multisource/topk?cost=0&edges=3,17&k=4
//	GET /skyline/period?edge=123&from=6&to=20       (only with -timedep)
//	GET /topk/period?edge=123&from=6&to=20&k=4      (only with -timedep)
//	GET /healthz
//	GET /readyz
//	GET /stats
//	GET /debug/pprof/   (only with -pprof)
//
// Every query endpoint accepts timeout_ms to tighten the per-request deadline
// below the server's -timeout; a query that outlives it answers 504. When more than -workers queries are
// running and -queue-depth more are waiting, further queries are shed with
// 503 and a Retry-After hint rather than queued without bound; /readyz turns
// unready only while the shed rate exceeds -shed-rate over -shed-window. On
// SIGINT or SIGTERM the server stops admitting queries, finishes the
// in-flight ones within -drain-timeout, and exits cleanly.
//
// A disk database is served through a CLOCK buffer pool (hits take no lock).
// A page read is one device read: a read that fails, or whose page fails its
// checksum, fails its query with 500 "storage failure", and /stats counts it
// under io_failures.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcn"
	"mcn/internal/serve"
)

func main() {
	log.SetFlags(0)
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		db         = flag.String("db", "", "disk database path (written by mcngen)")
		buffer     = flag.Float64("buffer", 0.01, "buffer pool fraction of database pages")
		synthetic  = flag.Bool("synthetic", false, "serve a synthetic in-memory network instead of a database")
		nodes      = flag.Int("nodes", 10_000, "synthetic: approximate node count")
		facilities = flag.Int("facilities", 2_000, "synthetic: facility count")
		d          = flag.Int("d", 4, "synthetic: cost types")
		seed       = flag.Int64("seed", 1, "synthetic: generator seed")
		timedep    = flag.Bool("timedep", false, "synthetic: attach deterministic time profiles and enable the /skyline/period and /topk/period endpoints")
		workers    = flag.Int("workers", 0, "max concurrent queries (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 64, "queries allowed to wait for a worker slot before admission sheds with 503 (0 = unbounded)")
		shedRate   = flag.Float64("shed-rate", serve.DefaultShedRate, "sustained sheds/s over -shed-window above which /readyz reports unready (negative = any shed)")
		shedWindow = flag.Duration("shed-window", serve.DefaultShedWindow, "sliding window the shed rate is averaged over")
		drainTO    = flag.Duration("drain-timeout", 10*time.Second, "how long SIGINT/SIGTERM waits for in-flight queries before forcing exit")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-query timeout (0 = none)")
		pprofFlag  = flag.Bool("pprof", false, "expose net/http/pprof endpoints under /debug/pprof/ (profiling; off by default)")

		cacheEntries = flag.Int("cache-entries", 4096, "result cache capacity in cached query results (0 = caching off)")
	)
	flag.Parse()

	var net *mcn.Network
	var tnet *mcn.TimeNetwork
	switch {
	case *db != "":
		if *timedep {
			log.Fatal("mcnserve: -timedep requires -synthetic (time profiles attach to the in-memory graph)")
		}
		n, err := mcn.OpenDatabaseOptions(*db, *buffer, mcn.PoolOptions{})
		if err != nil {
			log.Fatal(err)
		}
		defer n.Close()
		log.Printf("mcnserve: opened %s (d=%d, buffer=%.1f%%)", *db, n.D(), *buffer*100)
		net = n
	case *synthetic:
		g, err := mcn.Synthetic(mcn.SyntheticConfig{
			Nodes: *nodes, Facilities: *facilities, D: *d, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		net = mcn.FromGraph(g)
		log.Printf("mcnserve: generated synthetic network (%d nodes, %d facilities, d=%d)",
			g.NumNodes(), g.NumFacilities(), g.D())
		if *timedep {
			tnet = mcn.TimeDependent(g)
			profiles := g.NumEdges() / 10
			if err := mcn.AttachSyntheticProfiles(tnet, profiles, *seed); err != nil {
				log.Fatal(err)
			}
			log.Printf("mcnserve: time-dependent profiles on %d edges; period endpoints enabled", profiles)
		}
	default:
		log.Fatal("mcnserve: pass -db <path> or -synthetic")
	}

	if is, ok := net.IndexStats(); ok {
		log.Printf("mcnserve: pruning index attached (%d bytes)", is.BoundsBytes)
	}
	if *cacheEntries > 0 {
		cache := net.EnableResultCache(mcn.CacheOptions{Entries: *cacheEntries})
		log.Printf("mcnserve: result cache enabled (%d entries)", cache.Capacity())
	}
	srv := serve.New(net, serve.Config{
		Workers:    *workers,
		Timeout:    *timeout,
		QueueDepth: *queueDepth,
		ShedRate:   *shedRate,
		ShedWindow: *shedWindow,
		TimeNet:    tnet,
	})
	var handler http.Handler
	if *pprofFlag {
		handler = srv.ProfiledHandler()
		log.Printf("mcnserve: profiling endpoints enabled at /debug/pprof/")
	} else {
		handler = srv.Handler()
	}
	log.Printf("mcnserve: listening on %s (%d workers, queue depth %d, %v query timeout)",
		*addr, srv.Executor().Workers(), *queueDepth, *timeout)

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("mcnserve: %v received, draining (timeout %v)", sig, *drainTO)
		// Flip admission first so /readyz goes unready and new queries are
		// rejected with 503, then let the HTTP layer finish open requests.
		// Queries admitted before this point — including queued ones — still
		// run to completion; only the drain timeout cuts them off.
		srv.Executor().StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("mcnserve: connection drain incomplete: %v", err)
		}
		if err := srv.Executor().DrainWait(ctx); err != nil {
			log.Printf("mcnserve: query drain incomplete: %v", err)
		}
		log.Printf("mcnserve: drained, exiting")
	}
}
