//go:build !race

package core

import (
	"path/filepath"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/storage"
)

// TestDiskSkylineAllocs gates the disk path's allocations: skylines over a
// database file behind a 1 % buffer pool, with each engine. What a query
// still allocates is its own bookkeeping (expansions, tracked facilities,
// results). Nothing is allocated per page read or per record fetched: LSA's
// expansions decode each record into buffers of their state units, and CEA's
// memo into arenas of the scratch, both kept from query to query. The fixed
// instance measures 44 (CEA) and 47 (LSA) allocs per query — 617 and 1 535
// while every fetch allocated an entry slice and a cost slab — so the
// ceiling sits where a per-record allocation coming back would break it.
func TestDiskSkylineAllocs(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 4000, Facilities: 800, Queries: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := storage.CreateFileDevice(filepath.Join(t.TempDir(), "alloc.mcn"))
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := storage.Build(inst.Graph, dev); err != nil {
		t.Fatal(err)
	}
	const ceiling = 100
	for _, engine := range []Engine{CEA, LSA} {
		t.Run(engine.String(), func(t *testing.T) {
			net, err := storage.OpenOptions(dev, 0.01, storage.PoolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			round := func() {
				for _, loc := range inst.Queries {
					if _, err := Skyline(net, loc, Options{Engine: engine}); err != nil {
						t.Fatal(err)
					}
				}
			}
			round() // allocates the pool's frames and grows the record buffers
			perQuery := testing.AllocsPerRun(3, round) / float64(len(inst.Queries))
			t.Logf("%.0f allocs per disk %v skyline", perQuery, engine)
			if perQuery > ceiling {
				t.Errorf("%.0f allocs per disk %v skyline, ceiling %d: the miss path or the record decode allocates per page or per record again", perQuery, engine, ceiling)
			}
			if s := net.Stats(); s.Physical == 0 || s.HitRate() > 0.9 {
				t.Errorf("the queries did not exercise the miss path: %v", s)
			}
		})
	}
}
