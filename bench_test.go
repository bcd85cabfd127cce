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
	"path/filepath"
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
	"mcn/internal/testsupport/testnet"
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

// benchQueries times query i%len(ds.Queries) for i < b.N on one pool over
// dev, then reports pages/query from one pass over ds.Queries on a fresh
// pool, outside the timer: a constant of the tree, where an average over
// b.N would drift with b.N.
func benchQueries(b *testing.B, dev storage.Device, ds *bench.Dataset, buffer float64, query func(net *storage.Network, i int) error) {
	b.Helper()
	open := func() *storage.Network {
		net, err := storage.OpenOptions(dev, buffer, storage.PoolOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return net
	}
	net := open()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := query(net, i%len(ds.Queries)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	net = open()
	for i := range ds.Queries {
		if err := query(net, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(net.Stats().Physical)/float64(len(ds.Queries)), "pages/query")
}

// runSkylineBench benchmarks one engine over a dataset's database on dev.
func runSkylineBench(b *testing.B, dev storage.Device, ds *bench.Dataset, buffer float64, engine core.Engine) {
	b.Helper()
	benchQueries(b, dev, ds, buffer, func(net *storage.Network, i int) error {
		_, err := core.Skyline(net, ds.Queries[i], core.Options{Engine: engine})
		return err
	})
}

func runTopKBench(b *testing.B, ds *bench.Dataset, buffer float64, k int, engine core.Engine) {
	b.Helper()
	benchQueries(b, ds.Dev, ds, buffer, func(net *storage.Network, i int) error {
		_, err := core.TopK(net, ds.Queries[i], ds.Aggs[i], k, core.Options{Engine: engine})
		return err
	})
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
				runSkylineBench(b, ds.Dev, ds, w.Buffer, e)
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
				runSkylineBench(b, ds.Dev, ds, w.Buffer, e)
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
				runSkylineBench(b, ds.Dev, ds, w.Buffer, e)
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
				runSkylineBench(b, ds.Dev, ds, buf, e)
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
			benchQueries(b, ds.Dev, ds, w.Buffer, func(net *storage.Network, i int) error {
				_, err := core.Skyline(net, ds.Queries[i], variant.opts)
				return err
			})
		})
	}
}

// BenchmarkBaselineSkyline: the naive d-expansions strawman for comparison.
func BenchmarkBaselineSkyline(b *testing.B) {
	w := baseWorkload(b)
	ds := dataset(b, "fig9b", w)
	benchQueries(b, ds.Dev, ds, w.Buffer, func(net *storage.Network, i int) error {
		_, err := core.NaiveSkyline(net, ds.Queries[i], core.Options{})
		return err
	})
}

// BenchmarkDiskSkyline: the disk rows of `make benchmem` — skylines over the
// default dataset behind a 1 % buffer pool, where nearly every page access is
// a miss: CEA through its record memo, LSA decoding each record straight into
// its expansions' buffers. The cea and lsa rows read the database from a
// MemDevice, whose pages the pool verifies on every miss; the file rows read
// the same database as a file opened with OpenFileDevice, as mcn.OpenDatabase
// does, whose pages it verifies once per open.
func BenchmarkDiskSkyline(b *testing.B) {
	ds := dataset(b, "fig9b", baseWorkload(b))
	file := fileDevice(b, ds.Dev)
	for _, tc := range []struct {
		name   string
		dev    storage.Device
		engine core.Engine
	}{{"cea", ds.Dev, core.CEA}, {"lsa", ds.Dev, core.LSA}, {"file/cea", file, core.CEA}, {"file/lsa", file, core.LSA}} {
		b.Run(tc.name, func(b *testing.B) { runSkylineBench(b, tc.dev, ds, 0.01, tc.engine) })
	}
}

// fileDevice writes the pages of dev to a file and opens it read-only.
func fileDevice(b *testing.B, dev *storage.MemDevice) *storage.FileDevice {
	img := make([]byte, dev.NumPages()*storage.PageSize)
	for id := 0; id < dev.NumPages(); id++ {
		if err := dev.ReadPage(storage.PageID(id), img[id*storage.PageSize:]); err != nil {
			b.Fatal(err)
		}
	}
	path := filepath.Join(b.TempDir(), "db.mcn")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		b.Fatal(err)
	}
	f, err := storage.OpenFileDevice(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	return f
}

// BenchmarkBatchSkyline: concurrent skyline throughput through the batch
// executor at several worker counts and buffer sizes, over one shared
// disk-resident network. Reports queries/sec and device reads per query next
// to the usual ns/op (which here is wall time for the whole 32-query batch).
func BenchmarkBatchSkyline(b *testing.B) {
	w := baseWorkload(b)
	ds := dataset(b, "fig9b", w)
	const batch = 32
	for _, buffer := range []float64{0.01, 0.05, 0.20} {
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("pool=%g%%/workers=%d", 100*buffer, workers), func(b *testing.B) {
				net, err := storage.OpenOptions(ds.Dev, buffer, storage.PoolOptions{})
				if err != nil {
					b.Fatal(err)
				}
				exec := engine.New(net, engine.Config{Workers: workers})
				reqs := make([]mcn.BatchRequest, batch)
				for i := range reqs {
					reqs[i] = mcn.BatchRequest{Kind: engine.Skyline, Loc: ds.Queries[i%len(ds.Queries)],
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
				b.ReportMetric(float64(net.Stats().Physical)/float64(queries), "phys/query")
			})
		}
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
		{"map", testnet.NewMemorySource(mds.Graph)},
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
			net, err := storage.OpenOptions(ds.Dev, w.Buffer, storage.PoolOptions{})
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
		src := testnet.NewMemorySource(mds.Graph)
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

// sf25Graph is the sf25 shape of the system benchmark's disk and serving
// workloads (43 750 nodes, 25 000 facilities, d = 4, anti-correlated costs).
func sf25Graph(b *testing.B) *mcn.Graph {
	b.Helper()
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 43_750, Facilities: 25_000, D: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkCreateDatabase: bringing the sf25 network online on disk — the
// record layout, the B+-trees, the pruning index, the checksums and the
// file written and renamed into place — one database per iteration.
func BenchmarkCreateDatabase(b *testing.B) {
	g := sf25Graph(b)
	path := filepath.Join(b.TempDir(), "sf25.mcn")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mcn.CreateDatabase(g, path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFromGraph: bringing the sf25 network online in memory — the flat
// compile alone, since the pruning index waits for the first within — one
// network per iteration.
func BenchmarkFromGraph(b *testing.B) {
	g := sf25Graph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchNet = mcn.FromGraph(g)
	}
}

var benchNet *mcn.Network
