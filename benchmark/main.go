// Command benchmark is the repository's performance benchmark: five named
// workloads over the query stack, each measured end to end with tracing off
// and, in a second pass, layer by layer with spans recorded from the
// benchmark's own files around the product's public seams. BENCHMARK.json at
// the repository root describes it to the driver; README.md in this directory
// describes it to people.
//
// Usage (from the repository root):
//
//	go run ./benchmark                       # every workload, untraced then traced
//	go run ./benchmark -workload disk_paper -trace 0 -seed 7 -seconds 10
//	go run ./benchmark -verify               # 1 s per workload, exit 1 on a wrong answer
//
// The last line of standard output is one JSON object: for a single workload
// and pass, {"correct", "attempted", "failed", "metrics"} as the driver's
// contract asks; for a full run, the same object per workload and pass.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// env is what a workload runs with and reports into.
type env struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  float64
	traced   bool
	binDir   string // where the product binaries are built
	outDir   string // benchmark/out: traces
	tmpDir   string // scratch of this pass; removed afterwards
	rep      *report
	tr       *tracer
	mark     time.Time // when the previous phase ended
}

// phase prints how long the phase that just ended took, so a run that nears
// the driver's time limits shows where the time goes.
func (e *env) phase(name string) {
	now := time.Now()
	fmt.Printf("# %s %s: %.2f s\n", e.workload, name, now.Sub(e.mark).Seconds())
	e.mark = now
}

// setup reports setup_s as the median of the run's repeated set-ups.
func (e *env) setup(seconds []float64) {
	q1, med, q3 := quartiles(seconds)
	e.rep.set("setup_s", med)
	fmt.Printf("# %s set-up: median %.4f s, quartiles %.4f–%.4f, n=%d\n", e.workload, med, q1, q3, len(seconds))
}

// queryLatency reports the latency metrics of an ascending sample.
func (e *env) queryLatency(sortedMS []float64) {
	q := tailQuantile(len(sortedMS))
	e.rep.set("query_p50_ms", percentile(sortedMS, 0.5))
	e.rep.set("query_p99_ms", percentile(sortedMS, q))
	e.rep.set("query_tail_percentile", 100*q)
	fmt.Printf("# %s latency: n=%d, p50 %.4g ms, p%.2f %.4g ms\n",
		e.workload, len(sortedMS), percentile(sortedMS, 0.5), 100*q, percentile(sortedMS, q))
}

// windowLatency reports the latency metrics of a load window (the median
// second's; see loadResult.stats).
func (e *env) windowLatency(r loadResult, s windowStats) {
	e.rep.set("query_p50_ms", s.p50MS)
	e.rep.set("query_p99_ms", s.tailMS)
	e.rep.set("query_tail_percentile", s.tailPct)
	fmt.Printf("# %s latency: n=%d over %.1f s, median second: p50 %.4g ms, p%.2f %.4g ms\n",
		e.workload, len(r.latMS), r.wall.Seconds(), s.p50MS, s.tailPct, s.tailMS)
}

// overhead reports the cost of tracing from the same operations timed
// without and with it.
func (e *env) overhead(untracedMS, tracedMS []float64) {
	u, t := mean(untracedMS), mean(tracedMS)
	if u > 0 && t > 0 {
		e.rep.set("trace.overhead_pct", 100*(t-u)/t)
	}
}

// finishTrace resolves the pass's spans, writes them to
// benchmark/out/trace-<workload>.jsonl and returns them.
func (e *env) finishTrace() []span {
	resolve(e.tr.spans)
	if err := writeJSONL(filepath.Join(e.outDir, "trace-"+e.workload+".jsonl"), e.tr.spans); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: writing trace: %v\n", err)
	}
	return e.tr.spans
}

var workloads = map[string]func(*env) error{
	"disk_paper":      runDiskPaper,
	"serve_mixed":     runServeMixed,
	"serve_hot_disk":  runServeHotDisk,
	"gateway_scatter": runGatewayScatter,
	"update_mix":      runUpdateMix,
}

// runPass runs one workload once, traced or not, and returns its result.
func runPass(name string, seed int64, seconds float64, traced bool) (resultLine, error) {
	run, ok := workloads[name]
	if !ok {
		return resultLine{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	outDir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return resultLine{}, err
	}
	tmpDir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return resultLine{}, err
	}
	defer os.RemoveAll(tmpDir)
	e := &env{
		ctx: context.Background(), workload: name, seed: seed, seconds: seconds, traced: traced,
		binDir: filepath.Join(".bench_build", "bin"), outDir: outDir, tmpDir: tmpDir,
		rep: newReport(), tr: newTracer(), mark: time.Now(),
	}
	if err := run(e); err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", name, err)
	}
	if e.rep.attempted > 0 {
		e.rep.set("error_rate", float64(e.rep.failed)/float64(e.rep.attempted))
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return e.rep.line(defs, !traced)
}

func printMetrics(name string, traced bool, line resultLine) {
	pass := "end-to-end"
	if traced {
		pass = "per-layer"
	}
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("## %s (%s): attempted %d, failed %d\n", name, pass, line.Attempted, line.Failed)
	for _, n := range names {
		m := line.Metrics[n]
		fmt.Printf("%-16s %-40s %16.6g %s\n", name, n, m.Value, m.Unit)
	}
}

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the request stream (the dataset is fixed; see README.md)")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.String("trace", "both", "0 = end-to-end metrics, 1 = per-layer metrics (traced), both = one pass of each")
	verify := flag.Bool("verify", false, "smoke test: run every workload untraced for 1 s and exit 1 on any wrong answer")
	flag.Parse()

	if _, err := os.Stat(filepath.Join("benchmark", "surface.go")); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root (go run ./benchmark)")
		os.Exit(2)
	}
	stopOnSignal()
	if *verify {
		*workload, *trace, *seconds = "all", "0", 1
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "benchmark: -trace %q: want 0, 1 or both\n", *trace)
		os.Exit(2)
	}

	all := map[string]resultLine{}
	var last resultLine
	failed := 0
	for _, name := range names {
		for _, traced := range passes {
			line, err := runPass(name, *seed, *seconds, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				os.Exit(1)
			}
			printMetrics(name, traced, line)
			key := name + "/end_to_end"
			if traced {
				key = name + "/per_layer"
			}
			all[key], last = line, line
			failed += line.Failed
		}
	}
	var out []byte
	if len(all) == 1 {
		out, _ = json.Marshal(last)
	} else {
		out, _ = json.Marshal(all)
	}
	fmt.Println(string(out))
	if *verify && failed > 0 {
		os.Exit(1)
	}
}
