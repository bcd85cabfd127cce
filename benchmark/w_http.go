package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// stack is a serving stack under load: real processes in an untraced pass,
// in-process servers with wrapped seams in a traced one.
type stack struct {
	url   string  // where clients send queries
	procs []*proc // untraced: every spawned process
	stops []func()

	// Traced in-process stacks expose what the seams cannot see from
	// outside.
	net  *Network
	exec *Executor
	dev  *deviceShim
	// cacheBefore is the result cache's counters when the traced window
	// opened.
	cacheBefore CacheStats
	server      *proc // untraced: the (first) mcnserve, for /stats
}

func (s *stack) stop() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	for i := len(s.procs) - 1; i >= 0; i-- {
		s.procs[i].stop()
	}
}

// httpWorkload describes one of the three process workloads.
type httpWorkload struct {
	in   *instance
	tn   *TimeNetwork // oracle for period kinds; nil when there are none
	pool []*prepared  // the distinct requests, with expectations
	// Arrival n sends pool[seq[n % len(seq)]].
	seq []int32
	// The warm-up pass is the first warm arrivals of seqWarm (or of seq).
	seqWarm  []int32
	warm     int
	openRate float64 // > 0: the window's first half is an open loop at this rate
	// prime are sent to every server process during set-up, so lazy
	// compilation is part of setup_s and not of the first queries.
	prime []*prepared

	start  func(e *env, serveBin, gatewayBin string) (*stack, error)
	inproc func(e *env, cur *atomic.Int64) (*stack, error)
}

// sender returns a load.send over target t. observe, when set, sees every
// correct answer (traced passes record spans and keep results for probes).
func (w *httpWorkload) sender(t *httpTarget, seq []int32, observe func(n int, p *prepared, start, done time.Time, d decoded)) func(int) (time.Time, bool) {
	return func(n int) (time.Time, bool) {
		p := w.pool[seq[n%len(seq)]]
		start := time.Now()
		body, done, err := t.do(p)
		if err != nil {
			return done, false
		}
		d, ok := p.check(body)
		if ok && observe != nil {
			observe(n, p, start, done, d)
		}
		return done, ok
	}
}

// warmUp runs the warm-up pass and fails the run on any wrong answer: the
// stack is not serving the dataset the expectations were computed on.
func (w *httpWorkload) warmUp(t *httpTarget, senders int) error {
	seq := w.seqWarm
	if seq == nil {
		seq = w.seq
	}
	res := load{senders: senders, limit: w.warm, send: w.sender(t, seq, nil)}.run()
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d answers wrong or failed (dataset drift?)", res.failed, res.attempted)
	}
	return nil
}

// primeServer sends reqs to a server, checking the answers.
func primeServer(url string, reqs []*prepared) error {
	t := newHTTPTarget(url, 1)
	defer t.close()
	for _, p := range reqs {
		body, _, err := t.do(p)
		if err != nil {
			return fmt.Errorf("prime %s: %w", url, err)
		}
		if _, ok := p.check(body); !ok {
			return fmt.Errorf("prime %s: wrong answer for %s (dataset drift?)", url, p.q.URI())
		}
	}
	return nil
}

// startServer spawns one mcnserve, waits until it is ready and primes it.
func (w *httpWorkload) startServer(e *env, bin, name string, args ...string) (*proc, error) {
	p, err := spawn(bin, filepath.Join(e.tmpDir, name+".log"), args...)
	if err != nil {
		return nil, err
	}
	if err := p.waitReady(time.Minute); err != nil {
		p.stop()
		return nil, err
	}
	if err := primeServer(p.url, w.prime); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// listen serves h on a fresh loopback port until the returned stop is called.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

func fetchStats[T any](t *httpTarget) (T, error) {
	var out T
	body, status, err := t.get(pathStats)
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("GET %s: status %d", pathStats, status)
	}
	return out, json.Unmarshal(body, &out)
}

// run executes the workload: untraced against real processes for the
// end-to-end metrics, or traced for the ledger.
func (w *httpWorkload) run(e *env) error {
	e.rep.set("gen.generate_s", w.in.genS)
	serveBin, gatewayBin, err := buildBinaries(e.binDir)
	if err != nil {
		return err
	}
	e.phase("inputs, expectations, build")
	window := time.Duration(e.seconds * float64(time.Second))
	if !e.traced {
		return w.runUntraced(e, serveBin, gatewayBin, window)
	}
	if err := w.probeProcesses(e, serveBin, gatewayBin, window); err != nil {
		return err
	}
	e.phase("real processes")
	return w.runTraced(e, window)
}

// probeProcesses is the part of a traced pass that needs the real processes:
// the counters only /stats shows, and the fixed-rate SLO probe.
func (w *httpWorkload) probeProcesses(e *env, serveBin, gatewayBin string, window time.Duration) error {
	st, err := w.start(e, serveBin, gatewayBin)
	if err != nil {
		return err
	}
	defer st.stop()
	t := newHTTPTarget(st.url, connections)
	defer t.close()
	if err := w.warmUp(t, connections); err != nil {
		return err
	}
	statsT := newHTTPTarget(st.server.url, 1)
	defer statsT.close()
	before, err := fetchStats[serveStats](statsT)
	if err != nil {
		return err
	}
	res := load{senders: connections, dur: window / 4, send: w.sender(t, w.seq, nil)}.run()
	e.count(res)
	after, err := fetchStats[serveStats](statsT)
	if err != nil {
		return err
	}
	if res.correct() > 0 {
		e.rep.set("page_reads_per_query", float64(after.IO.Physical-before.IO.Physical)/float64(res.correct()))
	}
	e.rep.set("engine.shed_count", float64(after.Admission.Shed))
	var rss float64
	for _, p := range st.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return err
		}
		rss += mb
	}
	e.rep.set("peak_rss_mb", rss)
	if w.openRate > 0 {
		w.sloProbe(e, t, window/8, res.attempted)
	}
	return nil
}

// runTraced rebuilds the stack inside this process with the seams wrapped and
// drives it with one client: a quarter window with the tracer switched off
// (the reference for its overhead), then half a window with it on.
func (w *httpWorkload) runTraced(e *env, window time.Duration) error {
	var cur atomic.Int64
	st, err := w.inproc(e, &cur)
	if err != nil {
		return err
	}
	defer st.stop()
	t := newHTTPTarget(st.url, 1)
	defer t.close()
	e.tr.off.Store(true)
	if err := w.warmUp(t, 1); err != nil {
		return err
	}
	var seen []observed
	inner := w.sender(t, w.seq, func(n int, p *prepared, start, done time.Time, d decoded) {
		e.tr.add("client", n, start, done)
		if len(seen) < probeSample && !e.tr.off.Load() {
			seen = append(seen, observed{p, d})
		}
	})
	send := func(n int) (time.Time, bool) {
		cur.Store(int64(n))
		return inner(n)
	}
	ref := load{senders: 1, dur: window / 4, send: send}.run()
	e.count(ref)

	e.tr.off.Store(false)
	st.net.ResetIOStats()
	st.cacheBefore, _ = st.net.ResultCacheStats()
	if st.dev != nil {
		st.dev.reads.Store(0)
		st.dev.busy.Store(0)
	}
	var traced loadResult
	allocs, bytes := memDelta(func() {
		traced = load{senders: 1, dur: window / 2, first: ref.attempted, send: send}.run()
	})
	e.count(traced)
	e.phase("in-process stack")
	s := traced.stats()
	e.windowLatency(traced, s)
	e.rep.set("throughput_qps", s.qps)
	if ref.qps() > 0 {
		e.rep.set("trace.overhead_pct", 100*(ref.qps()-traced.qps())/ref.qps())
	}
	if n := float64(traced.correct()); n > 0 {
		// The whole process's allocations: client, servers and tracer.
		e.rep.set("runtime.allocs_per_query", allocs/n)
		e.rep.set("runtime.alloc_bytes_per_query", bytes/n)
	}
	w.ledger(e, st, traced, seen)
	return nil
}

// count adds a window's attempts and failures to the pass's totals.
func (e *env) count(r loadResult) {
	e.rep.attempted += r.attempted
	e.rep.failed += r.failed
}

func (w *httpWorkload) runUntraced(e *env, serveBin, gatewayBin string, window time.Duration) error {
	var st *stack
	var setups []float64
	repeats := setupRepeats
	if w.tn != nil {
		repeats = setupRepeatsTimedep
	}
	for r := 0; r < repeats; r++ {
		if st != nil {
			st.stop()
		}
		start := time.Now()
		var err error
		if st, err = w.start(e, serveBin, gatewayBin); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.stop()
	e.setup(setups)
	e.phase("set-ups")

	t := newHTTPTarget(st.url, connections)
	defer t.close()
	if err := w.warmUp(t, connections); err != nil {
		return err
	}
	e.phase("warm-up")
	closed := load{senders: connections, dur: window, send: w.sender(t, w.seq, nil)}
	if w.openRate > 0 {
		// Phase A: open loop; latency runs from each arrival's due time.
		open := load{senders: connections, rate: w.openRate, dur: window / 2, send: w.sender(t, w.seq, nil)}.run()
		e.count(open)
		e.windowLatency(open, open.stats())
		closed.dur, closed.first = window/2, open.attempted
	}
	// Closed loop: throughput (and latency, when there is no open phase).
	res := closed.run()
	e.count(res)
	s := res.stats()
	if w.openRate == 0 {
		e.windowLatency(res, s)
	}
	e.rep.set("throughput_qps", s.qps)
	e.phase("window")
	return nil
}

// sloProbe runs the three fixed arrival rates against the real stack and
// reports the highest that kept its tail latency within the limit without a
// growing backlog, plus how late the generator itself ran at the base rate.
func (w *httpWorkload) sloProbe(e *env, t *httpTarget, dur time.Duration, first int) {
	best := 0.0
	for i, rate := range sloRates {
		res := load{senders: connections, rate: rate, dur: dur, first: first, send: w.sender(t, w.seq, nil)}.run()
		first += res.attempted
		e.count(res)
		tail := percentile(res.latMS, tailQuantile(len(res.latMS)))
		// A backlog that grows shows as arrivals sent ever later than due.
		late := percentile(res.lateMS, tailQuantile(len(res.lateMS)))
		if i == 0 {
			e.rep.set("loadgen.late_p99_ms", late)
		}
		if res.failed == 0 && tail <= sloLimitMS && late <= sloLimitMS {
			best = rate
		}
	}
	e.rep.set("loadgen.slo_rate_qps", best)
}

// observed is one answered request of the traced pass, kept for the probes.
type observed struct {
	p *prepared
	d decoded
}

// probeSample bounds how many answers the traced pass keeps for the probes.
const probeSample = 512

// ledger turns the traced pass's spans, the in-process stack's counters and
// the micro-probes into per-layer metrics.
func (w *httpWorkload) ledger(e *env, st *stack, traced loadResult, seen []observed) {
	n := float64(traced.correct())
	if n == 0 {
		return
	}
	spans := e.finishTrace()
	selfNS, count := layerSelf(spans)
	legs := map[int][]float64{}      // replica leg durations (us) by request
	byKind := map[string][]float64{} // client-observed latency (ms) by query kind
	// handlerUS: how long the server's handler took on the requests the
	// executor probe can replay (static, single location, not streamed).
	var handlerUS []float64
	for _, s := range spans {
		us := float64(s.End-s.Start) / 1e3
		p := w.pool[w.seq[s.Req%len(w.seq)]]
		switch s.Name {
		case "client":
			byKind[p.q.Kind] = append(byKind[p.q.Kind], us/1e3)
		case "cluster.leg":
			legs[s.Req] = append(legs[s.Req], us)
		case "serve.handler":
			if _, _, ok := batchOf(p.q); ok && !p.stream {
				handlerUS = append(handlerUS, us)
			}
		}
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ms := byKind[k]
		sort.Float64s(ms)
		fmt.Printf("# %s client latency of %-20s n=%-6d p50 %.3f ms, p99 %.3f ms\n", e.workload, k, len(ms), percentile(ms, 0.5), percentile(ms, 0.99))
	}
	// What the client waited for outside the server's (or gateway's) handler.
	e.rep.set("serve.transport_us", float64(selfNS["client"])/float64(count["client"])/1e3)
	gateway := count["cluster.gateway"] > 0
	if gateway {
		e.rep.set("cluster.gateway_self_us", float64(selfNS["cluster.gateway"])/float64(count["cluster.gateway"])/1e3)
		e.rep.set("cluster.legs_per_query", float64(count["cluster.leg"])/float64(count["cluster.gateway"]))
		var maxes []float64
		for _, l := range legs {
			m := 0.0
			for _, v := range l {
				m = max(m, v)
			}
			maxes = append(maxes, m)
		}
		e.rep.set("cluster.leg_max_us", mean(maxes))
		gt := newHTTPTarget(st.url, 1)
		if gs, err := fetchStats[gatewayStats](gt); err == nil {
			e.rep.set("cluster.failovers", float64(gs.Gateway.Failovers))
		}
		gt.close()
	}

	if io, ok := st.net.IOStats(); ok {
		e.rep.set("storage.logical_reads_per_query", float64(io.Logical)/n)
		e.rep.set("storage.pool_hit_rate", io.HitRate())
		shards, _ := st.net.PoolShardStats()
		var ev int64
		for _, sh := range shards {
			ev += sh.Evictions
		}
		e.rep.set("storage.pool_evictions_per_query", float64(ev)/n)
		fs, _ := st.net.IOFailureStats()
		e.rep.set("storage.io_retries", float64(fs.Retries))
	}
	if cs, ok := st.net.ResultCacheStats(); ok {
		reportCache(e.rep, st.cacheBefore, cs)
	}
	if st.dev != nil {
		e.rep.set("storage.device_reads_per_query", float64(st.dev.reads.Load())/n)
		e.rep.set("storage.device_read_us", float64(st.dev.busy.Load())/n/1e3)
	}
	if w.tn != nil {
		var ivs, periods float64
		for _, p := range w.pool {
			if p.q.Period() {
				ivs += float64(len(w.tn.Breakpoints(p.q.From, p.q.To)))
				periods++
			}
		}
		if periods > 0 {
			e.rep.set("timedep.intervals_per_period_query", ivs/periods)
		}
	}
	probeExecutor(e, st.exec, w, handlerUS)
	probeWire(e, seen)
	if gateway {
		probeMerge(e, seen)
	}
}

// flatCosts times the pieces of bringing a graph onto the flat path, which
// mcn.FromGraph does in one call: CSR compile and pruning-index build.
func flatCosts(e *env, g *Graph) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // twice: the first run's finalizers free more
	runtime.ReadMemStats(&before)
	start := time.Now()
	src := flatCompile(g)
	e.rep.set("flat.compile_s", time.Since(start).Seconds())
	runtime.GC()
	runtime.ReadMemStats(&after)
	e.rep.set("flat.heap_mb", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/1e6)
	runtime.KeepAlive(src)
	start = time.Now()
	b := indexFromGraph(g)
	e.rep.set("index.build_s", time.Since(start).Seconds())
	e.rep.set("index.bytes", float64(b.Bytes()))
}

// compileTimeNetwork forces tn's lazy overlay compile and reports its time.
func compileTimeNetwork(e *env, tn *TimeNetwork, loc Location) error {
	start := time.Now()
	if _, err := tn.SkylineAt(e.ctx, loc, 0, queryOptions()); err != nil {
		return fmt.Errorf("compile time-dependent overlay: %w", err)
	}
	e.rep.set("timedep.compile_s", time.Since(start).Seconds())
	return nil
}

// serveConfig mirrors mcnserve's flag defaults.
func serveConfig(tn *TimeNetwork) ServeConfig {
	return ServeConfig{Timeout: 10 * time.Second, QueueDepth: 64, TimeNet: tn}
}

// mixedPool builds a pool of n requests cycling through kinds, each kind
// alternating between the codecs given.
func mixedPool(gen *reqGen, n int, kinds []string, codecs []codec) ([]*prepared, error) {
	pool := make([]*prepared, n)
	for i := range pool {
		kind := kinds[i%len(kinds)]
		round := i / len(kinds)
		engine := "cea"
		if kind == kindSkyline && round%4 >= 2 {
			engine = "lsa"
		}
		p, err := prepare(gen.request(kind, engine), codecs[round%len(codecs)])
		if err != nil {
			return nil, err
		}
		pool[i] = p
	}
	return pool, nil
}

// shuffled returns a seeded permutation of [0, n).
func shuffled(n int, seed int64) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	newReqGen(nil, seed).rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// firstOfEachKind picks the first pool request of every kind present.
func firstOfEachKind(pool []*prepared) []*prepared {
	seen := map[string]bool{}
	var out []*prepared
	for _, p := range pool {
		if !seen[p.q.Kind] {
			seen[p.q.Kind] = true
			out = append(out, p)
		}
	}
	return out
}

// mixKinds is the cycle of query kinds serve_mixed and gateway_scatter draw
// from: all eight kinds, 60 % single-location (which a gateway proxies), 20 %
// multi-source (scattered and merged), 20 % period (range split). The shares
// are deliberately not 50/50: a median that sits on the boundary between the
// cheap and the expensive half of a mix moves with every run.
var mixKinds = []string{kindSkyline, kindTopK, kindMultiSkyline, kindNearest, kindSkylinePeriod,
	kindWithin, kindSkyline, kindMultiTopK, kindNearest, kindTopKPeriod}

// timedepWorkload prepares what serve_mixed and gateway_scatter share: the
// td2k instance, its time-dependent oracle, and a shuffled pool with
// expectations.
func timedepWorkload(e *env, codecs []codec) (*httpWorkload, error) {
	const poolSize = 1024
	in, err := newInstance(td2kNodes, td2kFacilities, poolSize)
	if err != nil {
		return nil, err
	}
	tn, err := in.timeNetwork()
	if err != nil {
		return nil, err
	}
	gen := newReqGen(in, e.seed)
	gen.breaks = tn.Breakpoints(0, 24)[1:] // [0] is the range's own start
	pool, err := mixedPool(gen, poolSize, mixKinds, codecs)
	if err != nil {
		return nil, err
	}
	if err := in.expectAll(e.ctx, tn, pool, bruteChecksTD2K); err != nil {
		return nil, err
	}
	w := &httpWorkload{in: in, tn: tn, pool: pool, seq: shuffled(poolSize, e.seed+1), warm: poolSize,
		prime: firstOfEachKind(pool)}
	return w, nil
}

// timedepServerArgs are the flags of a cache-less mcnserve over td2k with
// time profiles.
func timedepServerArgs(in *instance) []string {
	return append(in.serveArgs(), flagTimedep, flagCacheEntries, "0")
}

// inprocTimedepServer builds what mcnserve -synthetic -timedep builds, in
// this process, timing the compiles.
func inprocTimedepServer(e *env, w *httpWorkload) (*Network, *TimeNetwork, error) {
	flatCosts(e, w.in.g)
	net := fromGraph(w.in.g)
	tn, err := w.in.timeNetwork()
	if err != nil {
		return nil, nil, err
	}
	if err := compileTimeNetwork(e, tn, locOf(w.pool[0].q)); err != nil {
		return nil, nil, err
	}
	return net, tn, nil
}

// serve_mixed: one cache-less mcnserve over td2k with time profiles; all
// eight query kinds, JSON and MCNB alternating; an open-loop half at a fixed
// rate, then a closed-loop half.
func runServeMixed(e *env) error {
	w, err := timedepWorkload(e, []codec{codecJSON, codecMCNB})
	if err != nil {
		return err
	}
	w.openRate = serveMixedRate
	w.start = func(e *env, serveBin, _ string) (*stack, error) {
		p, err := w.startServer(e, serveBin, "mcnserve", timedepServerArgs(w.in)...)
		if err != nil {
			return nil, err
		}
		return &stack{url: p.url, procs: []*proc{p}, server: p}, nil
	}
	w.inproc = func(e *env, cur *atomic.Int64) (*stack, error) {
		net, tn, err := inprocTimedepServer(e, w)
		if err != nil {
			return nil, err
		}
		srv := newServer(net, serveConfig(tn))
		url, stop, err := listen(spanHandler(e.tr, "serve.handler", cur, srv.Handler()))
		if err != nil {
			return nil, err
		}
		return &stack{url: url, stops: []func(){stop}, net: net, exec: srv.Executor()}, nil
	}
	return w.run(e)
}

// gateway_scatter: mcngateway -policy hash in front of two cache-less
// mcnserve replicas over td2k; MCNB POSTs, closed loop; 60 % proxied
// single-location queries, 20 % multi-source (scatter + merge), 20 % period
// queries (range split + seam fusion).
func runGatewayScatter(e *env) error {
	w, err := timedepWorkload(e, []codec{codecMCNB})
	if err != nil {
		return err
	}
	w.start = func(e *env, serveBin, gatewayBin string) (*stack, error) {
		st := &stack{}
		var wg sync.WaitGroup
		replicas := make([]*proc, 2)
		errs := make([]error, 2)
		for i := range replicas {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replicas[i], errs[i] = w.startServer(e, serveBin, fmt.Sprintf("replica%d", i), timedepServerArgs(w.in)...)
			}()
		}
		wg.Wait()
		var urls []string
		for i, p := range replicas {
			if p != nil {
				st.procs = append(st.procs, p)
				urls = append(urls, p.url)
			}
			if errs[i] != nil {
				st.stop()
				return nil, errs[i]
			}
		}
		gw, err := spawn(gatewayBin, filepath.Join(e.tmpDir, "gateway.log"),
			flagBackends, strings.Join(urls, ","), flagPolicy, "hash")
		if err != nil {
			st.stop()
			return nil, err
		}
		st.procs = append(st.procs, gw)
		if err := gw.waitReady(time.Minute); err != nil {
			st.stop()
			return nil, err
		}
		st.url, st.server = gw.url, replicas[0]
		return st, nil
	}
	w.inproc = func(e *env, cur *atomic.Int64) (*stack, error) {
		// The two replicas share one network: they are read-only, and the
		// overlay compile is the expensive part.
		net, tn, err := inprocTimedepServer(e, w)
		if err != nil {
			return nil, err
		}
		st := &stack{net: net}
		var urls []string
		for i := 0; i < 2; i++ {
			srv := newServer(net, serveConfig(tn))
			url, stop, err := listen(spanHandler(e.tr, "cluster.leg", cur, srv.Handler()))
			if err != nil {
				st.stop()
				return nil, err
			}
			st.stops = append(st.stops, stop)
			urls = append(urls, url)
			st.exec = srv.Executor()
		}
		m, err := newMembership(urls, 0)
		if err != nil {
			st.stop()
			return nil, err
		}
		gw := newGateway(m, policyHash, 15*time.Second)
		url, stop, err := listen(spanHandler(e.tr, "cluster.gateway", cur, gw.Handler()))
		if err != nil {
			st.stop()
			return nil, err
		}
		st.stops = append(st.stops, stop)
		st.url = url
		return st, nil
	}
	return w.run(e)
}

// serve_hot_disk: one mcnserve over the disk-resident sf25 with a 10 %
// buffer pool and the default result cache; GET endpoints; Zipf-distributed
// repeats over a fixed key set that fits the cache, plus a small fixed share
// of streamed skylines (stream=1), which bypass the result cache and so always
// run, on the warm pool.
func runServeHotDisk(e *env) error {
	const uncachedKeys = 64
	in, err := newInstance(sf25Nodes, sf25Facilities, hotDiskKeys+4*uncachedKeys)
	if err != nil {
		return err
	}
	gen := newReqGen(in, e.seed)
	pool, err := mixedPool(gen, hotDiskKeys, []string{kindSkyline, kindTopK, kindNearest, kindWithin}, []codec{codecGET})
	if err != nil {
		return err
	}
	// The uncacheable requests are the cheapest quarter of four times as many
	// candidate places (fewest node expansions, which the edge decides, not
	// the seed): the misses stay a garnish on the hit path and cost about
	// the same in every run.
	type candidate struct {
		p          *prepared
		expansions int
	}
	var cands []candidate
	for i := 0; i < 4*uncachedKeys; i++ {
		p, err := prepare(gen.request(kindSkyline, "cea"), codecStream)
		if err != nil {
			return err
		}
		res, err := runStatic(e.ctx, in.mem, p.q)
		if err != nil {
			return err
		}
		cands = append(cands, candidate{p, res.Stats.NodeExpansions})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].expansions < cands[j].expansions })
	for _, c := range cands[:uncachedKeys] {
		pool = append(pool, c.p)
	}
	if err := in.expectAll(e.ctx, nil, pool, bruteChecksSF25); err != nil {
		return err
	}

	// The timed sequence: seeded Zipf draws over the keys in pool order (rank
	// r is always the same kind at the same place, so the hot keys' answers
	// are as large under every seed), every hotUncachedEvery-th arrival an
	// uncacheable query. The warm-up
	// sequence visits every request once, so the window starts with every
	// key cached.
	z := newZipf(hotDiskKeys, zipfS)
	seq := make([]int32, 1<<16)
	for n := range seq {
		if n%hotUncachedEvery == hotUncachedEvery-1 {
			seq[n] = int32(hotDiskKeys + (n/hotUncachedEvery)%uncachedKeys)
		} else {
			seq[n] = int32(z.draw(gen.rng))
		}
	}
	w := &httpWorkload{in: in, pool: pool, seq: seq, seqWarm: shuffled(len(pool), e.seed+3), warm: len(pool),
		prime: firstOfEachKind(pool)}

	dbPath := filepath.Join(e.tmpDir, "sf25.mcn")
	w.start = func(e *env, serveBin, _ string) (*stack, error) {
		// Set-up includes writing the database mcnserve opens.
		if _, err := createDatabase(in.g, dbPath); err != nil {
			return nil, fmt.Errorf("create database: %w", err)
		}
		p, err := w.startServer(e, serveBin, "mcnserve", flagDB, dbPath, flagBuffer, fmt.Sprint(hotDiskBuffer))
		if err != nil {
			return nil, err
		}
		return &stack{url: p.url, procs: []*proc{p}, server: p}, nil
	}
	w.inproc = func(e *env, cur *atomic.Int64) (*stack, error) {
		start := time.Now()
		is, err := createDatabase(in.g, dbPath)
		if err != nil {
			return nil, fmt.Errorf("create database: %w", err)
		}
		e.rep.set("storage.build_s", (time.Since(start) - is.BuildTime).Seconds())
		e.rep.set("index.build_s", is.BuildTime.Seconds())
		e.rep.set("index.bytes", float64(is.BoundsBytes))
		fdev, err := openFileDevice(dbPath)
		if err != nil {
			return nil, err
		}
		e.rep.set("storage.db_pages", float64(fdev.NumPages()))
		e.rep.set("db_size_mb", float64(fdev.NumPages())*pageSize/1e6)
		dev := &deviceShim{Device: fdev}
		start = time.Now()
		net, err := openDevice(dev, hotDiskBuffer, PoolOptions{})
		if err != nil {
			fdev.Close()
			return nil, err
		}
		e.rep.set("storage.open_s", time.Since(start).Seconds())
		net.EnableResultCache(CacheOptions{})
		srv := newServer(net, serveConfig(nil))
		url, stop, err := listen(spanHandler(e.tr, "serve.handler", cur, srv.Handler()))
		if err != nil {
			net.Close()
			return nil, err
		}
		return &stack{url: url, stops: []func(){func() { net.Close() }, stop}, net: net, exec: srv.Executor(), dev: dev}, nil
	}
	return w.run(e)
}
