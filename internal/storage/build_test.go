package storage

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"mcn/internal/gen"
)

// errDeviceFull is what allocLimitDevice's Alloc returns at its limit.
var errDeviceFull = errors.New("device full")

// allocLimitDevice is an in-memory device whose Alloc fails once it holds
// limit pages.
type allocLimitDevice struct {
	*MemDevice
	limit int
}

func (d *allocLimitDevice) Alloc() (PageID, error) {
	if d.NumPages() >= d.limit {
		return 0, errDeviceFull
	}
	return d.MemDevice.Alloc()
}

// indexPasses returns the stacks of the goroutines still inside the pruning
// index's build, or "" when there are none.
func indexPasses() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "mcn/internal/index.FromCosts(") ||
			strings.Contains(g, "mcn/internal/index.reversed.backward(") ||
			strings.Contains(g, "mcn/internal/index.reverseArcs(") {
			out = append(out, g)
		}
	}
	return strings.Join(out, "\n\n")
}

// A build that fails part way returns the device's error only once the
// index it started alongside the layout has finished: no index pass is left
// running, and the goroutine count comes back to where it was. The failure
// is placed at the header, in the data file, in the trees and in the
// tables.
func TestBuildIndexedFailureJoinsIndex(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 4000, Facilities: 800, D: 4, Queries: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := inst.Graph
	full, err := BuildMem(g)
	if err != nil {
		t.Fatal(err)
	}
	pages := full.NumPages()
	baseline := runtime.NumGoroutine()
	for _, limit := range []int{0, 1, 2, pages / 4, pages / 2, 3 * pages / 4, pages - 2, pages - 1, pages} {
		dev := &allocLimitDevice{MemDevice: NewMemDevice(), limit: limit}
		_, err := BuildIndexed(g, dev)
		if running := indexPasses(); running != "" {
			t.Fatalf("limit %d: BuildIndexed returned with the index still being built:\n%s", limit, running)
		}
		switch {
		case limit == pages && err != nil:
			t.Fatalf("limit %d, the whole database: %v", limit, err)
		case limit < pages && !errors.Is(err, errDeviceFull):
			t.Fatalf("limit %d of %d pages: error %v, want the device's", limit, pages, err)
		}
		// The joined goroutine may still be between its last statement and
		// its exit; wait for it, with a deadline.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("limit %d: %d goroutines after the build, %d before", limit, runtime.NumGoroutine(), baseline)
			}
			runtime.Gosched()
		}
	}
}
