// Package bench reproduces the paper's evaluation (Sec. VI): every figure is
// one Experiment that sweeps a parameter over the synthetic San-Francisco-
// profile workload, runs LSA and CEA over the disk-resident storage scheme,
// and reports per-query physical page I/O, CPU time and simulated total time
// (physical reads × a configurable device latency + CPU).
//
// The paper's processing time is vastly I/O-dominated (its footnote 7: CPU
// is 5 % of LSA's and 16 % of CEA's total), so the physical page count
// behind an identical LRU buffer is the faithful basis of comparison; the
// latency multiplier only sets the scale of the reported seconds.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"mcn/internal/core"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/storage"
	"mcn/internal/vec"
)

// Config tunes the experiment suite.
type Config struct {
	// Scale multiplies the paper's node and facility counts (1.0 = 175K
	// nodes; the default 0.25 keeps the full suite to minutes).
	Scale float64
	// Queries is the number of query locations per data point (paper: 100).
	Queries int
	// LatencyMS is the simulated latency per physical page read in
	// milliseconds (default 8, a 2010-era random disk read).
	LatencyMS float64
	Seed      int64
}

func (c *Config) defaults() {
	if c.Scale == 0 {
		c.Scale = 0.25
	}
	if c.Queries == 0 {
		c.Queries = 20
	}
	if c.LatencyMS == 0 {
		c.LatencyMS = 8
	}
}

// Row is one algorithm's measurement at one parameter value, averaged per
// query.
type Row struct {
	Algo       string  `json:"algo"`
	SimSeconds float64 `json:"sim_seconds"`
	CPUSeconds float64 `json:"cpu_seconds"`
	PhysIO     float64 `json:"phys_io"`
	LogicalIO  float64 `json:"logical_io"`
	ResultSize float64 `json:"result_size"`
	// QPS is measured wall-clock queries/sec and P50MS/P99MS/P999MS are
	// request-latency quantiles in milliseconds from the soak engine's
	// histogram; only mcnsoak rows (SoakRow) fill them — the paper's figures
	// are simulated-time.
	QPS    float64 `json:"qps,omitempty"`
	P50MS  float64 `json:"p50_ms,omitempty"`
	P99MS  float64 `json:"p99_ms,omitempty"`
	P999MS float64 `json:"p999_ms,omitempty"`
}

// Point is one x-axis value of a figure with the rows of all algorithms.
type Point struct {
	Param string `json:"param"`
	Rows  []Row  `json:"rows"`
}

// Ratio returns row0.SimSeconds / row1.SimSeconds (LSA/CEA speedup).
func (p Point) Ratio() float64 {
	if len(p.Rows) < 2 || p.Rows[1].SimSeconds == 0 {
		return 0
	}
	return p.Rows[0].SimSeconds / p.Rows[1].SimSeconds
}

// Experiment regenerates one figure of the paper.
type Experiment struct {
	ID    string // e.g. "fig8a"
	Title string // e.g. "Fig. 8(a): skyline time vs |P|"
	Run   func(cfg Config) ([]Point, error)
}

// Paper defaults (Sec. VI).
const (
	paperNodes      = 175_000
	paperFacilities = 100_000
	defaultClusters = 10
	defaultD        = 4
	defaultBuffer   = 0.01
	defaultK        = 4
)

// Workload describes one data point's dataset and query setup.
type Workload struct {
	Nodes      int
	Facilities int
	D          int
	Dist       gen.Distribution
	Buffer     float64
	K          int
	Seed       int64
	Queries    int
}

// DefaultWorkload returns the paper's default setting scaled by c.Scale.
func (c Config) DefaultWorkload() Workload {
	return Workload{
		Nodes:      int(float64(paperNodes) * c.Scale),
		Facilities: int(float64(paperFacilities) * c.Scale),
		D:          defaultD,
		Dist:       gen.AntiCorrelated,
		Buffer:     defaultBuffer,
		K:          defaultK,
		Seed:       c.Seed,
		Queries:    c.Queries,
	}
}

// Dataset is a built disk-resident instance: the database image, the query
// locations, and one aggregate function per query.
type Dataset struct {
	Dev     *storage.MemDevice
	Queries []graph.Location
	Aggs    []vec.Aggregate
}

// MemDataset is the in-memory counterpart of Dataset: the graph itself plus
// the same query locations and aggregates, for experiments that measure the
// in-memory fast path rather than the paper's disk scheme.
type MemDataset struct {
	Graph   *graph.Graph
	Queries []graph.Location
	Aggs    []vec.Aggregate
}

// BuildMemDataset constructs the in-memory workload for w: synthetic road
// network, clustered facilities, query locations and per-query aggregate
// functions with random coefficients in [0, 1] (paper Sec. VI).
func BuildMemDataset(w Workload) (*MemDataset, error) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes:      w.Nodes,
		Facilities: w.Facilities,
		Clusters:   defaultClusters,
		D:          w.D,
		Dist:       w.Dist,
		Seed:       w.Seed,
		Queries:    w.Queries,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(w.Seed + 17))
	aggs := make([]vec.Aggregate, len(inst.Queries))
	for i := range aggs {
		coef := make([]float64, w.D)
		for j := range coef {
			coef[j] = rng.Float64()
		}
		aggs[i] = vec.NewWeighted(coef...)
	}
	return &MemDataset{Graph: inst.Graph, Queries: inst.Queries, Aggs: aggs}, nil
}

// BuildDataset is BuildMemDataset plus the disk image of the paper's storage
// scheme.
func BuildDataset(w Workload) (*Dataset, error) {
	mem, err := BuildMemDataset(w)
	if err != nil {
		return nil, err
	}
	dev, err := storage.BuildMem(mem.Graph)
	if err != nil {
		return nil, err
	}
	return &Dataset{Dev: dev, Queries: mem.Queries, Aggs: mem.Aggs}, nil
}

// queryKind selects the query type an experiment measures.
type queryKind int

const (
	skylineQuery queryKind = iota
	topkQuery
)

// paperPool is the buffer configuration of the paper-reproduction
// experiments: exact LRU, matching the single LRU buffer the paper's
// evaluation models. The clock default would shift the physical-read counts
// the figures are built on (clock approximates LRU), so reproductions pin
// it.
var paperPool = storage.PoolOptions{Policy: storage.PolicyLRU}

// measure runs all queries of ds with one engine over a fresh buffer pool
// and returns the averaged row. The pool persists across the queries (warm
// LRU), as a long-running server would behave.
func measure(ds *Dataset, kind queryKind, engine core.Engine, w Workload, latencyMS float64) (Row, error) {
	return measureOpts(ds, kind, engine.String(), core.Options{Engine: engine}, w, latencyMS)
}

// measureOpts is measure with full control over query options.
func measureOpts(ds *Dataset, kind queryKind, name string, opts core.Options, w Workload, latencyMS float64) (Row, error) {
	net, err := storage.OpenOptions(ds.Dev, w.Buffer, paperPool)
	if err != nil {
		return Row{}, err
	}
	var results int
	start := time.Now()
	for i, q := range ds.Queries {
		switch kind {
		case skylineQuery:
			res, err := core.Skyline(net, q, opts)
			if err != nil {
				return Row{}, err
			}
			results += len(res.Facilities)
		case topkQuery:
			res, err := core.TopK(net, q, ds.Aggs[i], w.K, opts)
			if err != nil {
				return Row{}, err
			}
			results += len(res.Facilities)
		}
	}
	cpu := time.Since(start).Seconds()
	stats := net.Stats()
	n := float64(len(ds.Queries))
	row := Row{
		Algo:       name,
		CPUSeconds: cpu / n,
		PhysIO:     float64(stats.Physical) / n,
		LogicalIO:  float64(stats.Logical) / n,
		ResultSize: float64(results) / n,
	}
	row.SimSeconds = row.PhysIO*latencyMS/1000 + row.CPUSeconds
	return row, nil
}

// runPoint builds w's dataset and measures LSA and CEA on it.
func runPoint(param string, w Workload, kind queryKind, latencyMS float64) (Point, error) {
	ds, err := BuildDataset(w)
	if err != nil {
		return Point{}, err
	}
	pt := Point{Param: param}
	for _, engine := range []core.Engine{core.LSA, core.CEA} {
		row, err := measure(ds, kind, engine, w, latencyMS)
		if err != nil {
			return Point{}, err
		}
		pt.Rows = append(pt.Rows, row)
	}
	return pt, nil
}

// sweep applies each variation to the default workload and gathers points.
func sweep(cfg Config, kind queryKind, params []string, vary func(*Workload, int)) ([]Point, error) {
	cfg.defaults()
	var out []Point
	for i, param := range params {
		w := cfg.DefaultWorkload()
		vary(&w, i)
		pt, err := runPoint(param, w, kind, cfg.LatencyMS)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", param, err)
		}
		out = append(out, pt)
	}
	return out, nil
}
