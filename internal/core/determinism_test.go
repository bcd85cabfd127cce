package core

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/storage"
	"mcn/internal/vec"
)

// The exact page accesses of TestPhysicalIODeterministic's query sequence.
// They move with the database layout and with the order in which the query
// drivers touch records, and nothing else; a change to either shows up here
// as a reviewed diff of these two numbers.
const (
	pinnedPhysical = 45517
	pinnedLogical  = 47048
)

// determinismInstance is the database and query sequence both I/O
// determinism tests replay: per location, a skyline and a top-k with each
// engine.
func determinismInstance(t *testing.T) (storage.Device, func(*testing.T, *storage.Network) []Stats) {
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
	replay := func(t *testing.T, net *storage.Network) []Stats {
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
		return stats
	}
	return dev, replay
}

// TestPhysicalIODeterministic pins the paper's metric: the same query
// sequence against the same database behind a fresh LRU pool (the paper's
// buffer, at 1 %) must miss the same number of pages every time, and do the
// same work. It only holds while no iteration order that reaches the store
// depends on a Go map — the shrinking-stage filter install walks the tracked
// facilities in arrival order for exactly this reason.
//
// The last run reads the same database through a file device, as a server
// opens it: the medium may change how a page arrives, not which pages miss.
func TestPhysicalIODeterministic(t *testing.T) {
	mem, replay := determinismInstance(t)
	file := fileCopy(t, mem)
	defer file.Close()
	var firstStats []Stats
	for run := 0; run < 6; run++ {
		var dev storage.Device = mem
		if run == 5 {
			dev = file
		}
		net, err := storage.OpenOptions(dev, 0.01, storage.PoolOptions{Policy: storage.PolicyLRU})
		if err != nil {
			t.Fatal(err)
		}
		stats := replay(t, net)
		if io := net.Stats(); io.Physical != pinnedPhysical || io.Logical != pinnedLogical {
			t.Errorf("run %d: %d physical / %d logical page reads, pinned %d / %d", run, io.Physical, io.Logical, pinnedPhysical, pinnedLogical)
		}
		if run == 0 {
			firstStats = stats
		} else if !reflect.DeepEqual(stats, firstStats) {
			t.Errorf("run %d: query stats differ from run 0", run)
		}
	}
}

// fileCopy writes dev's pages to a file, as mcn.CreateDatabase writes a
// database built in memory, and opens it read-only.
func fileCopy(t *testing.T, dev storage.Device) *storage.FileDevice {
	t.Helper()
	path := filepath.Join(t.TempDir(), "determinism.mcn")
	img := make([]byte, 0, dev.NumPages()*storage.PageSize)
	page := make([]byte, storage.PageSize)
	for id := 0; id < dev.NumPages(); id++ {
		if err := dev.ReadPage(storage.PageID(id), page); err != nil {
			t.Fatal(err)
		}
		img = append(img, page...)
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	in, err := storage.OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestPhysicalIOIndependentOfCores: behind the default pool — no options,
// as servers and the benchmark open it — the same query sequence must miss
// the same pages whatever GOMAXPROCS is. The paper's metric may depend on
// the accesses alone; a pool partitioned by core count splits its frames
// differently on every setting. The pool here has at least 16 frames, so
// such a split would show.
func TestPhysicalIOIndependentOfCores(t *testing.T) {
	dev, replay := determinismInstance(t)
	frac := 20 / float64(dev.NumPages())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want storage.Stats
	for i, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		net, err := storage.OpenOptions(dev, frac, storage.PoolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if c := net.Pool().Capacity(); c < 16 {
			t.Fatalf("pool of %d frames, want at least 16", c)
		}
		replay(t, net)
		if io := net.Stats(); i == 0 {
			want = io
		} else if io != want {
			t.Errorf("GOMAXPROCS %d: %v, at GOMAXPROCS 1: %v", procs, io, want)
		}
	}
}
