package core

import (
	"reflect"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/storage"
	"mcn/internal/vec"
)

// TestPhysicalIODeterministic pins the paper's metric: the same query
// sequence against the same database behind a fresh single-shard LRU pool
// (the paper's buffer, at 1 %) must miss the same number of pages every
// time, and do the same work. It only holds while no iteration order that
// reaches the store depends on a Go map — the shrinking-stage filter install
// walks the tracked facilities in arrival order for exactly this reason.
func TestPhysicalIODeterministic(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 4000, Facilities: 2000, D: 4, Queries: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := storage.BuildMem(inst.Graph)
	if err != nil {
		t.Fatal(err)
	}
	coef := make([]float64, inst.Graph.D())
	for i := range coef {
		coef[i] = 1 + float64(i)/2
	}
	agg := vec.NewWeighted(coef...)

	var firstPhysical int64
	var firstStats []Stats
	for run := 0; run < 5; run++ {
		net, err := storage.OpenOptions(dev, 0.01, storage.PoolOptions{Shards: 1, Policy: storage.PolicyLRU})
		if err != nil {
			t.Fatal(err)
		}
		var stats []Stats
		for _, loc := range inst.Queries {
			for _, eng := range []Engine{CEA, LSA} {
				sky, err := Skyline(net, loc, Options{Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				top, err := TopK(net, loc, agg, 4, Options{Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				stats = append(stats, sky.Stats, top.Stats)
			}
		}
		physical := net.Stats().Physical
		if run == 0 {
			if physical == 0 {
				t.Fatal("the queries never missed the pool")
			}
			firstPhysical, firstStats = physical, stats
			continue
		}
		if physical != firstPhysical {
			t.Errorf("run %d: %d physical page reads, run 0 had %d", run, physical, firstPhysical)
		}
		if !reflect.DeepEqual(stats, firstStats) {
			t.Errorf("run %d: query stats differ from run 0", run)
		}
	}
}
