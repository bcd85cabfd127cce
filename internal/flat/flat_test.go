package flat

import (
	"testing"

	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
)

func testInstance(t testing.TB, directed bool, seed int64) *gen.Instance {
	t.Helper()
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes:      300,
		Facilities: 60,
		Clusters:   4,
		D:          3,
		Queries:    4,
		Directed:   directed,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestCompileMatchesMemorySource asserts the CSR arrays reproduce, record by
// record, exactly what MemorySource serves.
func TestCompileMatchesMemorySource(t *testing.T) {
	for _, directed := range []bool{false, true} {
		inst := testInstance(t, directed, 7)
		g := inst.Graph
		mem := expand.NewMemorySource(g)
		fs := Compile(g)

		if fs.D() != mem.D() || fs.Directed() != mem.Directed() {
			t.Fatalf("directed=%v: D/Directed mismatch", directed)
		}
		if fs.NumNodes() != g.NumNodes() || fs.NumEdges() != g.NumEdges() || fs.NumFacilities() != g.NumFacilities() {
			t.Fatalf("directed=%v: size mismatch", directed)
		}

		for v := 0; v < g.NumNodes(); v++ {
			want, err := mem.Adjacency(graph.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			got, err := fs.Adjacency(graph.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("node %d: %d arcs, want %d", v, len(got), len(want))
			}
			for i := range want {
				if got[i].Neighbor != want[i].Neighbor || got[i].Edge != want[i].Edge ||
					got[i].Forward != want[i].Forward || got[i].FacRef != want[i].FacRef ||
					got[i].FacCount != want[i].FacCount || !got[i].W.Equal(want[i].W) {
					t.Fatalf("node %d arc %d: %+v, want %+v", v, i, got[i], want[i])
				}
			}
		}

		for e := 0; e < g.NumEdges(); e++ {
			id := graph.EdgeID(e)
			wantInfo, err := mem.EdgeInfo(id)
			if err != nil {
				t.Fatal(err)
			}
			gotInfo, err := fs.EdgeInfo(id)
			if err != nil {
				t.Fatal(err)
			}
			if gotInfo.U != wantInfo.U || gotInfo.V != wantInfo.V || gotInfo.FacRef != wantInfo.FacRef ||
				gotInfo.FacCount != wantInfo.FacCount || !gotInfo.W.Equal(wantInfo.W) {
				t.Fatalf("edge %d: %+v, want %+v", e, gotInfo, wantInfo)
			}
			want, err := mem.Facilities(wantInfo.FacRef, wantInfo.FacCount)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fs.Facilities(gotInfo.FacRef, gotInfo.FacCount)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("edge %d: %d facilities, want %d", e, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("edge %d facility %d: %+v, want %+v", e, i, got[i], want[i])
				}
			}
		}

		for p := 0; p < g.NumFacilities(); p++ {
			want, err := mem.FacilityEdge(graph.FacilityID(p))
			if err != nil {
				t.Fatal(err)
			}
			got, err := fs.FacilityEdge(graph.FacilityID(p))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("facility %d edge: %d, want %d", p, got, want)
			}
		}
	}
}

func TestOutOfRangeErrors(t *testing.T) {
	fs := Compile(testInstance(t, false, 3).Graph)
	if _, err := fs.Adjacency(graph.NodeID(fs.NumNodes())); err == nil {
		t.Error("Adjacency out of range: no error")
	}
	if _, err := fs.EdgeInfo(graph.EdgeID(fs.NumEdges())); err == nil {
		t.Error("EdgeInfo out of range: no error")
	}
	if _, err := fs.Facilities(uint64(fs.NumEdges()), 1); err == nil {
		t.Error("Facilities out of range: no error")
	}
	if _, err := fs.FacilityEdge(graph.FacilityID(fs.NumFacilities())); err == nil {
		t.Error("FacilityEdge out of range: no error")
	}
	if facs, err := fs.Facilities(graph.NoFacRef, 0); err != nil || facs != nil {
		t.Errorf("Facilities(NoFacRef) = %v, %v; want nil, nil", facs, err)
	}
}

// drain steps the expansion to exhaustion and returns (pops, steps).
func drain(t testing.TB, x *expand.Expansion) (pops, steps int) {
	t.Helper()
	for {
		ev, _, _, err := x.Step()
		if err != nil {
			t.Fatal(err)
		}
		if ev == expand.EventExhausted {
			return pops, steps
		}
		steps++
		if ev == expand.EventFacility {
			pops++
		}
	}
}

// TestFlatPopLoopZeroAlloc proves the acceptance criterion: once the pooled
// scratch is warm, the steady-state expansion pop loop over a flat source
// performs zero allocations per step. The only allocation left per whole
// expansion is the Expansion struct — a constant that does not grow with the
// number of steps.
func TestFlatPopLoopZeroAlloc(t *testing.T) {
	inst := testInstance(t, false, 11)
	fs := Compile(inst.Graph)
	loc := inst.Queries[0]

	// Warm-up run: grows the heap backing and the dense state arrays once.
	sc := expand.Acquire(fs)
	x, err := expand.New(fs, 0, loc, sc)
	if err != nil {
		t.Fatal(err)
	}
	_, steps := drain(t, x)
	sc.Release()
	if steps < 100 {
		t.Fatalf("instance too small for a meaningful measurement: %d steps", steps)
	}

	var stepErr error
	allocs := testing.AllocsPerRun(10, func() {
		sc := expand.Acquire(fs)
		defer sc.Release()
		x, err := expand.New(fs, 0, loc, sc)
		if err != nil {
			stepErr = err
			return
		}
		for {
			ev, _, _, err := x.Step()
			if err != nil {
				stepErr = err
				return
			}
			if ev == expand.EventExhausted {
				return
			}
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	// The per-expansion constant (the Expansion struct) is ≤ 2 allocations;
	// with hundreds of steps per run, anything above that means the pop loop
	// itself allocates.
	if allocs > 2 {
		t.Errorf("full expansion over warmed scratch allocated %.1f times (%d steps); pop loop is not alloc-free", allocs, steps)
	}
	if perStep := allocs / float64(steps); perStep > 0.01 {
		t.Errorf("pop loop allocates %.4f/step, want 0", perStep)
	}
}

// TestScratchReuseAcrossQueries runs many expansions through the scratch
// pool and checks each against the MemorySource reference: generation
// stamping must fully isolate queries from each other's leftovers.
func TestScratchReuseAcrossQueries(t *testing.T) {
	inst := testInstance(t, false, 13)
	fs := Compile(inst.Graph)
	mem := expand.NewMemorySource(inst.Graph)
	for round := 0; round < 3; round++ {
		for _, loc := range inst.Queries {
			for cost := 0; cost < fs.D(); cost++ {
				sc, scm := expand.Acquire(fs), expand.Acquire(mem)
				xf, err := expand.New(fs, cost, loc, sc)
				if err != nil {
					t.Fatal(err)
				}
				xm, err := expand.New(mem, cost, loc, scm)
				if err != nil {
					t.Fatal(err)
				}
				for {
					pf, cf, okf, err := xf.Next()
					if err != nil {
						t.Fatal(err)
					}
					pm, cm, okm, err := xm.Next()
					if err != nil {
						t.Fatal(err)
					}
					if okf != okm || pf != pm || cf != cm {
						t.Fatalf("round %d cost %d: flat (%d, %g, %v) != mem (%d, %g, %v)",
							round, cost, pf, cf, okf, pm, cm, okm)
					}
					if !okf {
						break
					}
				}
				sc.Release()
				scm.Release()
			}
		}
	}
}

// BenchmarkExpansion measures the pop loop alone — one full expansion to
// exhaustion per iteration, no skyline/top-k driver on top — for the
// MemorySource reference and the flat source.
func BenchmarkExpansion(b *testing.B) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes:      4_000,
		Facilities: 800,
		Clusters:   4,
		D:          3,
		Queries:    4,
		Seed:       5,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := inst.Graph
	loc := inst.Queries[0]
	mem := expand.NewMemorySource(g)
	fs := Compile(g)

	run := func(b *testing.B, src expand.Source) {
		b.Helper()
		b.ReportAllocs()
		steps := 0
		for i := 0; i < b.N; i++ {
			sc := expand.Acquire(src)
			x, err := expand.New(src, i%g.D(), loc, sc)
			if err != nil {
				b.Fatal(err)
			}
			for {
				ev, _, _, err := x.Step()
				if err != nil {
					b.Fatal(err)
				}
				if ev == expand.EventExhausted {
					break
				}
				steps++
			}
			sc.Release()
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	}

	b.Run("mem", func(b *testing.B) { run(b, mem) })
	b.Run("flat", func(b *testing.B) { run(b, fs) })
}
