package dynamic

import (
	"reflect"
	"testing"

	"mcn/internal/core"
	"mcn/internal/gen"
	"mcn/internal/storage"
)

// TestMaintainerPhysicalIODeterministic is core.TestPhysicalIODeterministic
// for a maintainer build: materialising one location over the same disk
// database behind a fresh single-shard LRU pool at 1 % must miss the same
// pages every time and yield the same entries. New reads each facility's
// records after the expansions, so the order it walks them in reaches the
// pool. 20 000 nodes, because at 4 000 the 1 % pool holds two frames and
// every record lookup misses whatever the order.
func TestMaintainerPhysicalIODeterministic(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 20000, Facilities: 2000, D: 4, Queries: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := storage.BuildMem(inst.Graph)
	if err != nil {
		t.Fatal(err)
	}
	var firstPhysical int64
	var firstEntries map[Handle]Entry
	for run := 0; run < 5; run++ {
		net, err := storage.OpenOptions(dev, 0.01, storage.PoolOptions{Shards: 1, Policy: storage.PolicyLRU})
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(net, inst.Queries[0], core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		entries := make(map[Handle]Entry, m.Len())
		for h, e := range m.facs {
			entries[h] = *e
		}
		m.Close()
		physical := net.Stats().Physical
		if run == 0 {
			if physical == 0 || len(entries) == 0 {
				t.Fatalf("the build missed %d pages and kept %d entries; the check is blind", physical, len(entries))
			}
			firstPhysical, firstEntries = physical, entries
			continue
		}
		if physical != firstPhysical {
			t.Errorf("run %d: %d physical page reads, run 0 had %d", run, physical, firstPhysical)
		}
		if !reflect.DeepEqual(entries, firstEntries) {
			t.Errorf("run %d: maintained entries differ from run 0", run)
		}
	}
}
