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
// pages every time and yield the same entries. A disk source runs the d
// node-only expansions one after another, then New sweeps the facility
// records in node id order, so the order of every read reaches the pool.
// 20 000 nodes, because at 4 000 the 1 % pool holds two frames and every
// record lookup misses whatever the order.
//
// The count itself is pinned too: the build reads exactly what d node-only
// expansions (adjacency records, plus the query edge's record each) and one
// sweep of the facility records read, so a change to how many records it
// touches, or in what order, is a reviewed diff here.
func TestMaintainerPhysicalIODeterministic(t *testing.T) {
	const wantPhysical = 118_810
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 20000, Facilities: 2000, D: 4, Queries: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := storage.BuildMem(inst.Graph)
	if err != nil {
		t.Fatal(err)
	}
	var firstEntries map[Handle]Entry
	for run := 0; run < 5; run++ {
		net, err := storage.OpenOptions(dev, 0.01, storage.PoolOptions{Policy: storage.PolicyLRU})
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
		if physical != wantPhysical {
			t.Errorf("run %d: %d physical page reads, want %d", run, physical, wantPhysical)
		}
		if run == 0 {
			if len(entries) == 0 {
				t.Fatal("the build kept no entries; the check is blind")
			}
			firstEntries = entries
			continue
		}
		if !reflect.DeepEqual(entries, firstEntries) {
			t.Errorf("run %d: maintained entries differ from run 0", run)
		}
	}
}
