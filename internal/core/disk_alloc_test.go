//go:build !race

package core

import (
	"path/filepath"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/storage"
)

// TestDiskSkylineAllocs gates the disk path's allocations: CEA skylines over
// a database file behind a 1 % buffer pool. What a query still allocates is
// its own state (labels, heap, tracked facilities) plus, per record fetched,
// the decoded copy the source hands over: one entry slice and one cost slab
// per adjacency record, one slice per facility record. Nothing is allocated
// per page read or per arc. The fixed instance measures 627 allocs/query
// (768 while Dijkstra state and the edge filter lived in per-query hash
// maps; 4 578 with a page buffer per miss and a cost vector per arc), so the
// ceiling sits where any of those coming back would break it.
func TestDiskSkylineAllocs(t *testing.T) {
	const ceiling = 720
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
	net, err := storage.Open(dev, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		for _, loc := range inst.Queries {
			if _, err := Skyline(net, loc, Options{Engine: CEA}); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // allocates the pool's frames
	perQuery := testing.AllocsPerRun(3, round) / float64(len(inst.Queries))
	t.Logf("%.0f allocs per disk CEA skyline", perQuery)
	if perQuery > ceiling {
		t.Errorf("%.0f allocs per disk CEA skyline, ceiling %d: the miss path or the record decode allocates per page or per arc again", perQuery, ceiling)
	}
	if s := net.Stats(); s.Physical == 0 || s.HitRate() > 0.9 {
		t.Errorf("the queries did not exercise the miss path: %v", s)
	}
}
