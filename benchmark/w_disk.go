package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// diskKinds is the cycle of query kinds disk_paper runs, with the label each
// kind's core span carries.
var diskKinds = []struct{ kind, engine, label string }{
	{kindSkyline, "cea", "skyline_cea"},
	{kindSkyline, "lsa", "skyline_lsa"},
	{kindTopK, "cea", "topk"},
	{kindWithin, "cea", "within"},
	{kindNearest, "cea", "nearest"},
}

// diskPaperRequests is the fixed-length operation sequence of a run: op i is
// always the same kind on the same edge; the seed decides where on the edge,
// the top-k weights, the budgets and the order.
func diskPaperRequests(in *instance, seed int64, n int) ([]*prepared, []string) {
	gen := newReqGen(in, seed)
	reqs := make([]*prepared, n)
	labels := make([]string, n)
	for i := range reqs {
		k := diskKinds[i%len(diskKinds)]
		reqs[i] = &prepared{q: gen.request(k.kind, k.engine)}
		labels[i] = k.label
	}
	gen.rng.Shuffle(n, func(i, j int) {
		reqs[i], reqs[j] = reqs[j], reqs[i]
		labels[i], labels[j] = labels[j], labels[i]
	})
	return reqs, labels
}

// runCore executes a static single-location request by calling the core
// algorithms on src directly, as the facade does beneath its option
// plumbing; the traced pass uses it to get a shim between core and storage.
func runCore(src Source, store *StorageStore, q *Request) (*Result, error) {
	opt := CoreOptions{Engine: engineCEA}
	if q.Engine == "lsa" {
		opt.Engine = engineLSA
	}
	if b := store.Bounds(); b != nil {
		opt.Bounds = b
	}
	switch q.Kind {
	case kindSkyline:
		return coreSkyline(src, locOf(q), opt)
	case kindTopK:
		return coreTopK(src, locOf(q), weightedSum(q.Weights...), q.K, opt)
	case kindWithin:
		return coreWithin(src, locOf(q), costsOf(q.Budget...), opt)
	case kindNearest:
		return coreNearest(src, locOf(q), q.Cost, q.K, opt)
	}
	return nil, fmt.Errorf("kind %q has no core entry point here", q.Kind)
}

// opStats accumulates the work counters of completed queries.
type opStats struct {
	n                                 int
	expansions, pops, tracked, pruned int64
}

func (s *opStats) add(st QueryStats) {
	s.n++
	s.expansions += int64(st.NodeExpansions)
	s.pops += int64(st.Pops)
	s.tracked += int64(st.Tracked)
	s.pruned += int64(st.PrunedNodes)
}

func (s *opStats) report(rep *report) {
	if s.n == 0 {
		return
	}
	n := float64(s.n)
	rep.set("expand.node_expansions_per_query", float64(s.expansions)/n)
	rep.set("core.pops_per_query", float64(s.pops)/n)
	rep.set("core.tracked_per_query", float64(s.tracked)/n)
	rep.set("index.pruned_nodes_per_query", float64(s.pruned)/n)
}

// memDelta measures heap allocations across fn.
func memDelta(fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// disk_paper: the paper's setting. One closed-loop client runs a fixed
// sequence of distinct queries against the disk-resident sf25 behind a 1 %
// buffer pool, with no result cache and no serving tier.
func runDiskPaper(e *env) error {
	nOps := int(diskPaperOpsPerSec * e.seconds)
	if nOps < 2*len(diskKinds) {
		nOps = 2 * len(diskKinds)
	}
	in, err := newInstance(sf25Nodes, sf25Facilities, nOps)
	if err != nil {
		return err
	}
	e.rep.set("gen.generate_s", in.genS)
	reqs, labels := diskPaperRequests(in, e.seed, nOps)
	if err := in.expectAll(e.ctx, nil, reqs, bruteChecksSF25); err != nil {
		return err
	}

	// Set-up: write the database (with its pruning index) and open it.
	path := filepath.Join(e.tmpDir, "sf25.mcn")
	var net *Network
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		if net != nil {
			net.Close()
		}
		start := time.Now()
		is, err := createDatabase(in.g, path)
		if err != nil {
			return fmt.Errorf("create database: %w", err)
		}
		built := time.Now()
		if net, err = openDatabase(path, diskPaperBuffer, PoolOptions{}); err != nil {
			return fmt.Errorf("open database: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		e.rep.set("storage.build_s", (built.Sub(start) - is.BuildTime).Seconds())
		e.rep.set("index.build_s", is.BuildTime.Seconds())
		e.rep.set("index.bytes", float64(is.BoundsBytes))
		e.rep.set("storage.open_s", time.Since(built).Seconds())
	}
	defer net.Close()
	e.setup(setups)
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	e.rep.set("db_size_mb", float64(st.Size())/1e6)
	e.rep.set("storage.db_pages", float64(st.Size())/pageSize)

	// The oracle has done its work; drop it so the collector does not trace
	// the harness's graph every time the disk path's garbage triggers it.
	in.g, in.mem = nil, nil
	runtime.GC()

	// Warm-up: the first sixteenth of the sequence, answers checked.
	warm := reqs[:max(nOps/16, len(diskKinds))]
	for _, p := range warm {
		res, err := runStatic(e.ctx, net, p.q)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", p.q.URI(), err)
		}
		if digestOf(p.q.Kind, res) != p.want {
			return fmt.Errorf("warm-up: wrong answer for %s (dataset drift?)", p.q.URI())
		}
	}

	// pass runs reqs once through exec and returns per-op latencies.
	pass := func(reqs []*prepared, exec func(i int, q *Request) (*Result, error)) (latMS []float64, stats opStats) {
		latMS = make([]float64, 0, len(reqs))
		for i, p := range reqs {
			start := time.Now()
			res, err := exec(i, p.q)
			lat := time.Since(start)
			e.rep.attempted++
			if err != nil || digestOf(p.q.Kind, res) != p.want {
				e.rep.failed++
				continue
			}
			latMS = append(latMS, float64(lat)/float64(time.Millisecond))
			stats.add(res.Stats)
		}
		return latMS, stats
	}
	facade := func(_ int, q *Request) (*Result, error) { return runStatic(e.ctx, net, q) }

	if !e.traced {
		latMS, _ := pass(reqs, facade)
		e.latencies(latMS)
		return nil
	}

	// Traced: first the untraced head of the sequence, for allocation counts
	// and for the tracing overhead; then the whole sequence over the shims.
	head := reqs[:nOps/4]
	var headLat []float64
	allocs, bytes := memDelta(func() { headLat, _ = pass(head, facade) })
	e.rep.set("runtime.allocs_per_query", allocs/float64(len(head)))
	e.rep.set("runtime.alloc_bytes_per_query", bytes/float64(len(head)))

	fdev, err := openFileDevice(path)
	if err != nil {
		return err
	}
	dev := &deviceShim{Device: fdev}
	store, err := openStore(dev, diskPaperBuffer, PoolOptions{})
	if err != nil {
		fdev.Close()
		return err
	}
	defer fdev.Close()
	src := &sourceShim{src: store}
	dev.reads.Store(0) // opening read the header, checksum and bounds tables
	dev.busy.Store(0)
	store.Pool().ResetStats()
	var devReads int64
	latMS, stats := pass(reqs, func(i int, q *Request) (*Result, error) {
		src.calls, src.busy = 0, 0
		r0, b0 := dev.reads.Load(), dev.busy.Load()
		start := time.Now()
		res, err := runCore(src, store, q)
		end := time.Now()
		e.tr.add("core."+labels[i], i, start, end)
		if src.calls > 0 {
			e.tr.addBusy("storage.source", i, start, end, src.busy, src.calls)
		}
		if n := dev.reads.Load() - r0; n > 0 {
			e.tr.addBusy("storage.device", i, start, end, time.Duration(dev.busy.Load()-b0), n)
			devReads += n
		}
		return res, err
	})
	e.latencies(latMS)
	stats.report(e.rep)
	e.overhead(headLat, latMS[:min(len(head), len(latMS))])

	n := float64(nOps)
	io := store.Stats()
	e.rep.set("page_reads_per_query", float64(io.Physical)/n)
	e.rep.set("storage.device_reads_per_query", float64(devReads)/n)
	e.rep.set("storage.logical_reads_per_query", float64(io.Logical)/n)
	e.rep.set("storage.pool_hit_rate", io.HitRate())
	var evictions int64
	for _, sh := range store.Pool().ShardStats() {
		evictions += sh.Evictions
	}
	e.rep.set("storage.pool_evictions_per_query", float64(evictions)/n)
	e.rep.set("storage.io_retries", float64(store.FailureStats().Retries))

	spans := e.finishTrace()
	selfNS, count := layerSelf(spans)
	e.rep.set("storage.device_read_us", float64(selfNS["storage.device"])/n/1e3)
	e.rep.set("storage.fetch_self_us", float64(selfNS["storage.source"])/n/1e3)
	var calls int64
	for _, s := range spans {
		if s.Name == "storage.source" {
			calls += s.Count
		}
	}
	e.rep.set("storage.source_calls_per_query", float64(calls)/n)
	for _, k := range diskKinds {
		if c := count["core."+k.label]; c > 0 {
			e.rep.set("core."+k.label+"_self_us", float64(selfNS["core."+k.label])/float64(c)/1e3)
		}
	}
	return nil
}

// latencies reports the query latency metrics of a one-client in-process
// pass: throughput is correct operations per second of time spent inside the
// library (the harness's own checking between operations is not counted).
func (e *env) latencies(latMS []float64) {
	sorted := append([]float64(nil), latMS...)
	sort.Float64s(sorted)
	e.queryLatency(sorted)
	if total := sum(latMS); total > 0 {
		e.rep.set("throughput_qps", float64(len(latMS))/(total/1000))
	}
}
