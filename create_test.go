package mcn

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mcn/internal/storage"
)

// Rebuilding the database at a path that an open network reads must not
// change what that network answers: the build writes a new file and renames
// it over the path, so the open network keeps reading the old one, and a
// fresh open sees the new one. A build that fails leaves the path as it was.
func TestCreateDatabaseReplacesOpenDatabase(t *testing.T) {
	gA, err := Synthetic(SyntheticConfig{Nodes: 1500, Facilities: 300, D: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	gB, err := Synthetic(SyntheticConfig{Nodes: 1200, Facilities: 200, D: 3, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "city.mcn")
	if err := CreateDatabase(gA, path); err != nil {
		t.Fatal(err)
	}
	// A pool of a few pages: nearly every read after the rebuild misses
	// and goes to the file.
	a, err := OpenDatabaseOptions(path, 0.01, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ctx := context.Background()
	queries := RandomQueries(gA, 6, 7)
	agg := WeightedSum(0.5, 0.3, 0.2)
	answers := func(n *Network) [][]FacilityID {
		t.Helper()
		var out [][]FacilityID
		for _, q := range queries {
			sky, err := n.Skyline(ctx, q)
			if err != nil {
				t.Fatalf("skyline: %v", err)
			}
			top, err := n.TopK(ctx, q, agg, 3)
			if err != nil {
				t.Fatalf("top-k: %v", err)
			}
			out = append(out, idsSorted(sky), ids(top))
		}
		return out
	}
	want := answers(a)

	if err := CreateDatabase(gB, path); err != nil {
		t.Fatal(err)
	}
	if got := answers(a); !reflect.DeepEqual(got, want) {
		t.Errorf("the open database answers differently after a rebuild at its path:\n got %v\nwant %v", got, want)
	}
	if fs, _ := a.IOFailureStats(); fs != (IOFailureStats{}) {
		t.Errorf("I/O failures after a rebuild at its path: %+v", fs)
	}

	b, err := OpenDatabaseOptions(path, 0.01, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.NumNodes() != gB.NumNodes() {
		t.Errorf("fresh open: %d nodes, want the rebuilt database's %d", b.NumNodes(), gB.NumNodes())
	}

	// A build that fails (a node with more arcs than a record holds)
	// leaves the database at path and no temporary file behind.
	hub := NewBuilder(1, false)
	center := hub.AddNode(0, 0)
	for i := 0; i <= 1<<16; i++ {
		hub.AddEdge(center, hub.AddNode(1, float64(i)), Of(1))
	}
	bad, err := hub.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateDatabase(bad, path); err == nil {
		t.Fatal("CreateDatabase accepted a node of 65537 arcs")
	}
	c, err := OpenDatabaseOptions(path, 0.01, PoolOptions{})
	if err != nil {
		t.Fatalf("open after a failed rebuild: %v", err)
	}
	defer c.Close()
	if c.NumNodes() != gB.NumNodes() {
		t.Errorf("after a failed rebuild: %d nodes, want the previous database's %d", c.NumNodes(), gB.NumNodes())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only the database", names)
	}
}

// The pruning index is built on its own goroutines alongside the record
// layout; the file it ends up in is the same bytes whatever GOMAXPROCS is,
// and the same bytes as the image storage.BuildMem builds.
func TestCreateDatabaseSameBytesAtAnyGOMAXPROCS(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{Nodes: 3000, Facilities: 800, D: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := storage.BuildMem(g)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 0, mem.NumPages()*storage.PageSize)
	page := make([]byte, storage.PageSize)
	for id := 0; id < mem.NumPages(); id++ {
		if err := mem.ReadPage(storage.PageID(id), page); err != nil {
			t.Fatal(err)
		}
		want = append(want, page...)
	}
	dir := t.TempDir()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		path := filepath.Join(dir, fmt.Sprintf("procs%d.mcn", procs))
		if err := CreateDatabase(g, path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: the file (%d bytes) differs from the in-memory image (%d bytes)", procs, len(got), len(want))
		}
	}
}

// A build that fails after its image is written — the rename onto path
// fails, because path is a directory that holds a file — leaves no
// temporary file behind and the directory at path as it was.
func TestCreateDatabaseFailedRenameLeavesNoTemporary(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{Nodes: 300, Facilities: 40, D: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "city.mcn")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CreateDatabase(g, path); err == nil {
		t.Fatal("CreateDatabase renamed a database over a directory")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "city.mcn" || !entries[0].IsDir() {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only the directory city.mcn", names)
	}
	if kept, err := os.ReadFile(filepath.Join(path, "keep")); err != nil || string(kept) != "x" {
		t.Errorf("the directory at path lost its file: %q, %v", kept, err)
	}
}
