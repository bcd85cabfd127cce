// Package mcn_test: the benchmarks live in the external test package —
// internal/bench now imports mcn itself (the cluster experiment stands up
// real serving stacks), so an in-package test importing internal/bench
// would be an import cycle.
package mcn_test

// One testing.B benchmark per figure of the paper's evaluation (Sec. VI).
// Each sub-benchmark runs one query per iteration, cycling through the
// dataset's query locations, and reports physical page reads per query next
// to the usual ns/op. Dataset scale is controlled with MCN_BENCH_SCALE
// (default 0.05 so `go test -bench=.` stays quick; cmd/mcnbench -full runs
// the paper-scale sweeps).

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"mcn"
	"mcn/internal/bench"
	"mcn/internal/core"
	"mcn/internal/engine"
	"mcn/internal/expand"
	"mcn/internal/flat"
	"mcn/internal/gen"
	"mcn/internal/storage"
	"mcn/internal/vec"
)

func benchScale() float64 {
	if s := os.Getenv("MCN_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.05
}

var (
	dsMu    sync.Mutex
	dsCache = map[string]*bench.Dataset{}
)

// dataset returns a cached dataset for the workload, building it on first
// use.
func dataset(b *testing.B, key string, w bench.Workload) *bench.Dataset {
	b.Helper()
	dsMu.Lock()
	defer dsMu.Unlock()
	if ds, ok := dsCache[key]; ok {
		return ds
	}
	ds, err := bench.BuildDataset(w)
	if err != nil {
		b.Fatal(err)
	}
	dsCache[key] = ds
	return ds
}

func baseWorkload(b *testing.B) bench.Workload {
	cfg := bench.Config{Scale: benchScale(), Queries: 16, Seed: 1}
	return cfg.DefaultWorkload()
}

// runSkyline benchmarks one engine over a dataset.
func runSkylineBench(b *testing.B, ds *bench.Dataset, buffer float64, engine core.Engine) {
	b.Helper()
	net, err := storage.Open(ds.Dev, buffer)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := ds.Queries[i%len(ds.Queries)]
		if _, err := core.Skyline(net, q, core.Options{Engine: engine}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(net.Stats().Physical)/float64(b.N), "pages/query")
}

func runTopKBench(b *testing.B, ds *bench.Dataset, buffer float64, k int, engine core.Engine) {
	b.Helper()
	net, err := storage.Open(ds.Dev, buffer)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ds.Queries)
		if _, err := core.TopK(net, ds.Queries[j], ds.Aggs[j], k, core.Options{Engine: engine}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(net.Stats().Physical)/float64(b.N), "pages/query")
}

func engines() []core.Engine { return []core.Engine{core.LSA, core.CEA} }

// BenchmarkFig08a: skyline vs |P|.
func BenchmarkFig08a(b *testing.B) {
	for _, p := range []int{25_000, 100_000, 200_000} {
		w := baseWorkload(b)
		w.Facilities = int(float64(p) * benchScale())
		ds := dataset(b, fmt.Sprintf("fig8a-%d", p), w)
		for _, e := range engines() {
			b.Run(fmt.Sprintf("P=%dK/%v", p/1000, e), func(b *testing.B) {
				runSkylineBench(b, ds, w.Buffer, e)
			})
		}
	}
}

// BenchmarkFig08b: skyline vs d.
func BenchmarkFig08b(b *testing.B) {
	for _, d := range []int{2, 3, 4, 5} {
		w := baseWorkload(b)
		w.D = d
		ds := dataset(b, fmt.Sprintf("fig8b-%d", d), w)
		for _, e := range engines() {
			b.Run(fmt.Sprintf("d=%d/%v", d, e), func(b *testing.B) {
				runSkylineBench(b, ds, w.Buffer, e)
			})
		}
	}
}

// BenchmarkFig09a: skyline vs edge-cost distribution.
func BenchmarkFig09a(b *testing.B) {
	for _, dist := range []gen.Distribution{gen.AntiCorrelated, gen.Independent, gen.Correlated} {
		w := baseWorkload(b)
		w.Dist = dist
		ds := dataset(b, "fig9a-"+dist.String(), w)
		for _, e := range engines() {
			b.Run(fmt.Sprintf("%v/%v", dist, e), func(b *testing.B) {
				runSkylineBench(b, ds, w.Buffer, e)
			})
		}
	}
}

// BenchmarkFig09b: skyline vs buffer size.
func BenchmarkFig09b(b *testing.B) {
	w := baseWorkload(b)
	ds := dataset(b, "fig9b", w)
	for _, buf := range []float64{0, 0.01, 0.02} {
		for _, e := range engines() {
			b.Run(fmt.Sprintf("buffer=%.1f%%/%v", buf*100, e), func(b *testing.B) {
				runSkylineBench(b, ds, buf, e)
			})
		}
	}
}

// BenchmarkFig10a: top-k vs |P|.
func BenchmarkFig10a(b *testing.B) {
	for _, p := range []int{25_000, 100_000, 200_000} {
		w := baseWorkload(b)
		w.Facilities = int(float64(p) * benchScale())
		ds := dataset(b, fmt.Sprintf("fig8a-%d", p), w) // same data as fig8a
		for _, e := range engines() {
			b.Run(fmt.Sprintf("P=%dK/%v", p/1000, e), func(b *testing.B) {
				runTopKBench(b, ds, w.Buffer, w.K, e)
			})
		}
	}
}

// BenchmarkFig10b: top-k vs d.
func BenchmarkFig10b(b *testing.B) {
	for _, d := range []int{2, 3, 4, 5} {
		w := baseWorkload(b)
		w.D = d
		ds := dataset(b, fmt.Sprintf("fig8b-%d", d), w)
		for _, e := range engines() {
			b.Run(fmt.Sprintf("d=%d/%v", d, e), func(b *testing.B) {
				runTopKBench(b, ds, w.Buffer, w.K, e)
			})
		}
	}
}

// BenchmarkFig11a: top-k vs edge-cost distribution.
func BenchmarkFig11a(b *testing.B) {
	for _, dist := range []gen.Distribution{gen.AntiCorrelated, gen.Independent, gen.Correlated} {
		w := baseWorkload(b)
		w.Dist = dist
		ds := dataset(b, "fig9a-"+dist.String(), w)
		for _, e := range engines() {
			b.Run(fmt.Sprintf("%v/%v", dist, e), func(b *testing.B) {
				runTopKBench(b, ds, w.Buffer, w.K, e)
			})
		}
	}
}

// BenchmarkFig11b: top-k vs buffer size.
func BenchmarkFig11b(b *testing.B) {
	w := baseWorkload(b)
	ds := dataset(b, "fig9b", w)
	for _, buf := range []float64{0, 0.01, 0.02} {
		for _, e := range engines() {
			b.Run(fmt.Sprintf("buffer=%.1f%%/%v", buf*100, e), func(b *testing.B) {
				runTopKBench(b, ds, buf, w.K, e)
			})
		}
	}
}

// BenchmarkFig12: top-k vs k.
func BenchmarkFig12(b *testing.B) {
	w := baseWorkload(b)
	ds := dataset(b, "fig9b", w)
	for _, k := range []int{1, 2, 4, 8, 16} {
		for _, e := range engines() {
			b.Run(fmt.Sprintf("k=%d/%v", k, e), func(b *testing.B) {
				runTopKBench(b, ds, w.Buffer, k, e)
			})
		}
	}
}

// BenchmarkAblation: the Sec. IV-A enhancements on vs off.
func BenchmarkAblation(b *testing.B) {
	w := baseWorkload(b)
	ds := dataset(b, "fig9b", w)
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"LSA", core.Options{Engine: core.LSA}},
		{"LSA-plain", core.Options{Engine: core.LSA, NoEnhancements: true}},
		{"CEA", core.Options{Engine: core.CEA}},
		{"CEA-plain", core.Options{Engine: core.CEA, NoEnhancements: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			net, err := storage.Open(ds.Dev, w.Buffer)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Skyline(net, ds.Queries[i%len(ds.Queries)], variant.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(net.Stats().Physical)/float64(b.N), "pages/query")
		})
	}
}

// BenchmarkBaselineSkyline: the naive d-expansions strawman for comparison.
func BenchmarkBaselineSkyline(b *testing.B) {
	w := baseWorkload(b)
	ds := dataset(b, "fig9b", w)
	net, err := storage.Open(ds.Dev, w.Buffer)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NaiveSkyline(net, ds.Queries[i%len(ds.Queries)], core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(net.Stats().Physical)/float64(b.N), "pages/query")
}

// BenchmarkDiskSkyline: the disk row of `make benchmem` — CEA skylines over
// the default dataset behind a 1 % buffer pool, where nearly every page
// access is a miss.
func BenchmarkDiskSkyline(b *testing.B) {
	runSkylineBench(b, dataset(b, "fig9b", baseWorkload(b)), 0.01, core.CEA)
}

// BenchmarkBatchSkyline: concurrent skyline throughput through the batch
// executor at several worker counts, over one shared disk-resident network.
// Reports queries/sec next to the usual ns/op (which here is wall time for
// the whole 32-query batch).
func BenchmarkBatchSkyline(b *testing.B) {
	w := baseWorkload(b)
	ds := dataset(b, "fig9b", w)
	const batch = 32
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			net, err := storage.Open(ds.Dev, w.Buffer)
			if err != nil {
				b.Fatal(err)
			}
			exec := engine.New(net, engine.Config{Workers: workers})
			reqs := make([]mcn.BatchRequest, batch)
			for i := range reqs {
				reqs[i] = mcn.BatchRequest{Kind: mcn.SkylineQuery, Loc: ds.Queries[i%len(ds.Queries)],
					Opts: core.Options{Engine: core.CEA}}
			}
			var queries int
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for _, resp := range exec.Execute(context.Background(), reqs) {
					if resp.Err != nil {
						b.Fatal(resp.Err)
					}
				}
				queries += batch
			}
			b.StopTimer()
			if wall := time.Since(start).Seconds(); wall > 0 {
				b.ReportMetric(float64(queries)/wall, "queries/sec")
			}
		})
	}
}

// BenchmarkBatchSkylineMem: concurrent skyline throughput over one shared
// in-memory network — the reference hash-map source vs the flat CSR fast
// path with pooled expansion scratch. The allocs/op delta between the two
// sub-benchmarks is the PR 2 acceptance metric.
func BenchmarkBatchSkylineMem(b *testing.B) {
	w := baseWorkload(b)
	mds, err := bench.BuildMemDataset(w)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 32
	sources := []struct {
		name string
		src  expand.Source
	}{
		{"map", expand.NewMemorySource(mds.Graph)},
		{"flat", flat.Compile(mds.Graph)},
	}
	for _, s := range sources {
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", s.name, workers), func(b *testing.B) {
				exec := engine.New(s.src, engine.Config{Workers: workers})
				reqs := make([]engine.Request, batch)
				for i := range reqs {
					reqs[i] = engine.Request{Kind: engine.Skyline, Loc: mds.Queries[i%len(mds.Queries)],
						Opts: core.Options{Engine: core.CEA}}
				}
				// Warmup populates the executor's scratch pool.
				for _, resp := range exec.Execute(context.Background(), reqs) {
					if resp.Err != nil {
						b.Fatal(resp.Err)
					}
				}
				var queries int
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					for _, resp := range exec.Execute(context.Background(), reqs) {
						if resp.Err != nil {
							b.Fatal(resp.Err)
						}
					}
					queries += batch
				}
				b.StopTimer()
				if wall := time.Since(start).Seconds(); wall > 0 {
					b.ReportMetric(float64(queries)/wall, "queries/sec")
				}
			})
		}
	}
}

// BenchmarkIncrementalTopK: cost of pulling the first 4 results one by one.
func BenchmarkIncrementalTopK(b *testing.B) {
	w := baseWorkload(b)
	ds := dataset(b, "fig9b", w)
	for _, e := range engines() {
		b.Run(e.String(), func(b *testing.B) {
			net, err := storage.Open(ds.Dev, w.Buffer)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(ds.Queries)
				it, err := core.NewTopKIterator(net, ds.Queries[j], ds.Aggs[j], core.Options{Engine: e})
				if err != nil {
					b.Fatal(err)
				}
				for n := 0; n < 4; n++ {
					if _, ok, err := it.Next(); err != nil || !ok {
						break
					}
				}
			}
		})
	}
}

// BenchmarkTopKIteratorNext measures the closeable incremental iterator:
// creation plus the first 4 Next calls, over one shared in-memory network —
// the MemorySource reference against the flat CSR source the facade uses.
// Either way the iterator holds pooled scratch until Close.
func BenchmarkTopKIteratorNext(b *testing.B) {
	w := baseWorkload(b)
	mds, err := bench.BuildMemDataset(w)
	if err != nil {
		b.Fatal(err)
	}
	coef := make([]float64, w.D)
	for i := range coef {
		coef[i] = 1
	}
	agg := vec.NewWeighted(coef...)

	b.Run("mem", func(b *testing.B) {
		src := expand.NewMemorySource(mds.Graph)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it, err := core.NewTopKIterator(src, mds.Queries[i%len(mds.Queries)], agg, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for n := 0; n < 4; n++ {
				if _, ok, err := it.Next(); err != nil || !ok {
					break
				}
			}
			it.Close()
		}
	})
	b.Run("flat", func(b *testing.B) {
		src := flat.Compile(mds.Graph)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it, err := core.NewTopKIterator(src, mds.Queries[i%len(mds.Queries)], agg, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for n := 0; n < 4; n++ {
				if _, ok, err := it.Next(); err != nil || !ok {
					break
				}
			}
			it.Close()
		}
	})
}
