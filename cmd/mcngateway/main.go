// Command mcngateway fronts a set of replicated mcnserve backends as one
// HTTP endpoint. Every replica holds the whole network, so every query —
// single-location, /multisource/* and */period alike, stream=1 included —
// is proxied to one replica chosen by consistent hashing on the query,
// failing over on transport errors and 5xx, and the replica's response is
// relayed verbatim.
//
// Usage:
//
//	mcngateway -backends http://10.0.0.1:8080,http://10.0.0.2:8080
//	mcngateway -backends ... -probe-interval 1s
//
// Endpoints mirror mcnserve's query surface, plus the gateway's own
// /healthz, /readyz (ready while at least one backend is available) and
// /stats (per-backend health, inflight and traffic counters).
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mcn/internal/cluster"
)

func main() {
	log.SetFlags(0)
	var (
		addr          = flag.String("addr", ":8090", "listen address")
		backends      = flag.String("backends", "", "comma-separated mcnserve base URLs (required)")
		policyFlag    = flag.String("policy", "hash", "routing policy: hash (cache affinity), the only one")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "how often backends' /readyz is probed")
		probeTimeout  = flag.Duration("probe-timeout", cluster.DefaultProbeTimeout, "per-probe timeout")
		timeout       = flag.Duration("timeout", 15*time.Second, "per-backend-request timeout (0 = none; replicas still enforce their own)")
	)
	flag.Parse()
	if *backends == "" {
		log.Fatal("mcngateway: pass -backends with at least one mcnserve URL")
	}
	policy, err := cluster.ParsePolicy(*policyFlag)
	if err != nil {
		log.Fatal(err)
	}
	m, err := cluster.NewMembership(strings.Split(*backends, ","), *probeTimeout)
	if err != nil {
		log.Fatal(err)
	}
	gw := cluster.NewGateway(m, policy, *timeout)

	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	go m.Start(probeCtx, *probeInterval)

	log.Printf("mcngateway: fronting %d backends on %s (%s routing, probing every %v)",
		len(m.Backends()), *addr, policy, *probeInterval)
	httpSrv := &http.Server{Addr: *addr, Handler: gw.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("mcngateway: %v received, shutting down", sig)
		stopProbes()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("mcngateway: shutdown incomplete: %v", err)
		}
	}
}
