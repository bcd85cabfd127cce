package main

import "fmt"

// metricDef names one metric the program emits. BENCHMARK.json must list
// exactly these names and units (a unit test holds the two together).
type metricDef struct {
	name, unit string
}

// endToEnd is what --trace 0 prints: what a user of the system sees. All of
// them apply to, and are non-zero on, every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"throughput_qps", "1/s"},
}

// perLayer is what --trace 1 prints. A metric that does not apply to the
// workload reads 0. The first seven are user-visible numbers that cannot be
// end-to-end metrics under the driver's contract because they are zero or
// undefined on some workload, or spread across seeds by more than the widest
// bound it allows (see README.md "Metrics moved to the ledger").
var perLayer = []metricDef{
	{"query_p99_ms", "ms"},
	{"page_reads_per_query", "pages"},
	{"db_size_mb", "MB"},
	{"update_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"error_rate", "ratio"},
	{"query_tail_percentile", "%"},

	{"storage.device_reads_per_query", "pages"},
	{"storage.logical_reads_per_query", "pages"},
	{"storage.pool_hit_rate", "ratio"},
	{"storage.pool_evictions_per_query", "count"},
	{"storage.device_read_us", "us"},
	{"storage.fetch_self_us", "us"},
	{"storage.source_calls_per_query", "count"},
	{"storage.io_retries", "count"},
	{"storage.build_s", "s"},
	{"storage.open_s", "s"},
	{"storage.db_pages", "pages"},
	{"index.build_s", "s"},
	{"index.bytes", "B"},

	{"core.skyline_cea_self_us", "us"},
	{"core.skyline_lsa_self_us", "us"},
	{"core.topk_self_us", "us"},
	{"core.within_self_us", "us"},
	{"core.nearest_self_us", "us"},
	{"expand.node_expansions_per_query", "count"},
	{"core.pops_per_query", "count"},
	{"core.tracked_per_query", "count"},
	{"index.pruned_nodes_per_query", "count"},

	{"runtime.allocs_per_query", "count"},
	{"runtime.alloc_bytes_per_query", "B"},

	{"flat.compile_s", "s"},
	{"flat.heap_mb", "MB"},
	{"timedep.compile_s", "s"},
	{"timedep.intervals_per_period_query", "count"},

	{"engine.queue_wait_us", "us"},
	{"engine.shed_count", "count"},

	{"rescache.hit_rate", "ratio"},
	{"rescache.hit_us", "us"},
	{"rescache.coalesced", "count"},
	{"rescache.evictions", "count"},
	{"rescache.invalidate_us", "us"},
	{"rescache.invalidated_per_update", "count"},
	{"dynamic.insert_us", "us"},
	{"dynamic.delete_us", "us"},
	{"timedep.setprofile_us", "us"},

	{"wire.decode_json_us", "us"},
	{"wire.decode_mcnb_us", "us"},
	{"wire.encode_json_us", "us"},
	{"wire.encode_mcnb_us", "us"},
	{"wire.response_bytes_json", "B"},
	{"wire.response_bytes_mcnb", "B"},

	{"serve.handler_overhead_us", "us"},
	{"serve.transport_us", "us"},

	{"cluster.gateway_self_us", "us"},
	{"cluster.legs_per_query", "count"},
	{"cluster.leg_max_us", "us"},
	{"cluster.merge_us", "us"},
	{"cluster.failovers", "count"},

	{"gen.generate_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.slo_rate_qps", "1/s"},
	{"trace.overhead_pct", "%"},
}

// workloadNames are the five workloads, in the order a full run executes
// them.
var workloadNames = []string{"disk_paper", "serve_mixed", "serve_hot_disk", "gateway_scatter", "update_mix"}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects what one pass over one workload measured.
type report struct {
	attempted, failed int
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// set records a measured value. A pass may measure metrics of the set it is
// not printing on the way; a name in neither set is a bug in the benchmark.
func (r *report) set(name string, v float64) {
	if !declared[name] {
		panic("metric " + name + " is not declared in metrics.go")
	}
	r.values[name] = v
}

// declared holds every metric name of either set.
var declared = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range endToEnd {
		m[d.name] = true
	}
	for _, d := range perLayer {
		m[d.name] = true
	}
	return m
}()

// line renders the report over defs. End-to-end metrics must all have been
// measured; ledger metrics a workload does not exercise read 0.
func (r *report) line(defs []metricDef, requireAll bool) (resultLine, error) {
	out := resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && requireAll {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
