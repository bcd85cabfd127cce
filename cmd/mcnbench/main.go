// Command mcnbench regenerates the paper's evaluation figures (Sec. VI) on
// the synthetic San-Francisco-profile workload. Each experiment sweeps one
// parameter and reports LSA vs CEA per-query simulated time, physical and
// logical page I/O, CPU time and result size.
//
// Usage:
//
//	mcnbench                         # full suite at the default scale (0.25)
//	mcnbench -exp fig8a,fig12        # selected figures
//	mcnbench -full                   # paper scale (175K nodes, 100 queries)
//	mcnbench -csv results.csv        # also write CSV
//	mcnbench -json figures.json      # also write a JSON report
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mcn/internal/bench"
)

func main() {
	log.SetFlags(0)
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment ids (all, or any ids from -list: fig8a, fig8b, fig9a, fig9b, fig10a, fig10b, fig11a, fig11b, fig12, ablation, baseline)")
		scale    = flag.Float64("scale", 0.25, "fraction of the paper's dataset scale (1.0 = 175K nodes, 100K facilities)")
		queries  = flag.Int("queries", 20, "query locations per data point")
		latency  = flag.Float64("latency", 8, "simulated I/O latency per physical page read (ms)")
		seed     = flag.Int64("seed", 1, "workload seed")
		full     = flag.Bool("full", false, "paper scale: -scale 1.0 -queries 100")
		csvPath  = flag.String("csv", "", "also write results as CSV to this file")
		jsonPath = flag.String("json", "", "also write results as a JSON report to this file")
		listOnly = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *listOnly {
		for _, e := range bench.All() {
			fmt.Printf("%-11s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.Config{Scale: *scale, Queries: *queries, LatencyMS: *latency, Seed: *seed}
	if *full {
		cfg.Scale = 1.0
		cfg.Queries = 100
	}

	var selected []bench.Experiment
	if *expFlag == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				log.Fatalf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	var csv *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		csv = f
	}

	fmt.Printf("mcnbench: scale=%.2f queries=%d latency=%.1fms seed=%d\n\n", cfg.Scale, cfg.Queries, cfg.LatencyMS, cfg.Seed)
	report := bench.Report{Config: cfg, Host: bench.CurrentHost()}
	for i, exp := range selected {
		start := time.Now()
		points, err := exp.Run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", exp.ID, err)
		}
		bench.WriteTable(os.Stdout, exp, points)
		fmt.Printf("(%s completed in %.1fs)\n\n", exp.ID, time.Since(start).Seconds())
		if csv != nil {
			bench.WriteCSV(csv, exp, points, i == 0)
		}
		report.Results = append(report.Results, bench.ExperimentResult{ID: exp.ID, Title: exp.Title, Points: points})
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := bench.WriteJSON(f, report); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote JSON report to %s\n", *jsonPath)
	}
}
