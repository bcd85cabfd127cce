package dynamic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/flat"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/storage"
	"mcn/internal/testsupport/testnet"
)

// buildSources is every kind of source a maintainer is built over: the
// reference adapter, the flat CSR path (whose expansions run concurrently)
// and the disk store behind a small buffer pool.
func buildSources(t *testing.T, g *graph.Graph) map[string]expand.Source {
	t.Helper()
	dev, err := storage.BuildMem(g)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := storage.OpenOptions(dev, 0.05, storage.PoolOptions{Policy: storage.PolicyLRU})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]expand.Source{
		"memory": testnet.NewMemorySource(g),
		"flat":   flat.Compile(g),
		"disk":   disk,
	}
}

// recordFraction reads facility p's fraction from its edge's facility
// record.
func recordFraction(t *testing.T, src expand.Source, e graph.EdgeID, p graph.FacilityID) float64 {
	t.Helper()
	info, err := src.EdgeInfo(e)
	if err != nil {
		t.Fatal(err)
	}
	facs, err := src.Facilities(info.FacRef, info.FacCount)
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range facs {
		if fe.ID == p {
			return fe.T
		}
	}
	t.Fatalf("facility %d missing from the record of its edge %d", p, e)
	return 0
}

// The build derives every facility's cost vector from node distances in a
// sweep of the facility records, not from facility pops; the two must agree
// bit for bit. On every source, over testnet's hard-case instances —
// directed and undirected, facilities on the query edge ahead of q, behind
// it and at it, and components q cannot reach — with integer-cost ties and,
// in the continuous shape, costs and fractions whose sums round differently
// in another order, each entry must equal core.MaterializeAll's vector for
// its facility, sit on the edge the source names and at the fraction its
// record holds, and the entries must cover exactly the facilities
// MaterializeAll reaches.
func TestBuildMatchesExpansions(t *testing.T) {
	for i := int64(0); i < 80; i++ {
		seed, shape := i/2, testnet.ShapeOf(i/2)
		shape.Continuous = i%2 == 1
		inst := testnet.Generate(seed, shape)
		g, loc := inst.G, inst.Loc
		for name, src := range buildSources(t, g) {
			where := fmt.Sprintf("seed %d %+v: %v %s", seed, shape, inst, name)
			want, _, err := core.MaterializeAll(src, loc, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(src, loc, core.Options{})
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if m.Len() != len(want) {
				t.Fatalf("%s: %d entries, MaterializeAll reaches %d facilities", where, m.Len(), len(want))
			}
			for p, costs := range want {
				e, ok := m.Entry(Handle(p))
				if !ok {
					t.Fatalf("%s: facility %d reachable but not maintained", where, p)
				}
				for i := range costs {
					if math.Float64bits(e.Costs[i]) != math.Float64bits(costs[i]) {
						t.Fatalf("%s: facility %d cost %d = %v, expansion %v", where, p, i, e.Costs[i], costs[i])
					}
				}
				edge, err := src.FacilityEdge(p)
				if err != nil {
					t.Fatal(err)
				}
				if e.Edge != edge {
					t.Fatalf("%s: facility %d on edge %d, source says %d", where, p, e.Edge, edge)
				}
				if ft := recordFraction(t, src, edge, p); e.T != ft {
					t.Fatalf("%s: facility %d at %v, its record says %v", where, p, e.T, ft)
				}
			}
			if want := Handle(g.NumFacilities()); m.next > want {
				t.Fatalf("%s: next handle %d beyond the %d initial facilities", where, m.next, want)
			}
		}
	}
}

// Cancelling the context while the d expansions of a flat-source build run
// concurrently must fail New with context.Canceled and leave none of their
// goroutines behind. The Interrupt hook cancels on its 20th poll, once the
// expansions have taken hundreds of steps between them.
func TestBuildCancelStopsGoroutines(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 4000, Facilities: 500, D: 4, Queries: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	src := flat.Compile(inst.Graph)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var polls atomic.Int64
	opt := core.Options{Interrupt: func() error {
		if polls.Add(1) == 20 {
			cancel()
		}
		return nil
	}}.BindContext(ctx)
	m, err := New(src, inst.Queries[0], opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("New after cancel: maintainer %v, err %v; want context.Canceled", m != nil, err)
	}
	if n := polls.Load(); n < 20 {
		t.Fatalf("only %d interrupt polls; the cancel never fired", n)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after the cancelled build, %d before", after, before)
	}
}
