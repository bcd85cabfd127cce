package dynamic

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// Insert's deterministic work: exactly one EdgeInfo read and nothing else —
// no adjacency record, no facility record, no traversal.
func TestInsertReadsOneEdgeRecord(t *testing.T) {
	inst := testnet.Generate(704, testnet.Shape{D: 3})
	g, loc := inst.G, inst.Loc
	mem := expand.NewMemorySource(g)
	m, err := New(mem, loc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(704))
	for i := 0; i < 20; i++ {
		before := mem.Count.Snapshot()
		if _, err := m.Insert(graph.EdgeID(rng.Intn(g.NumEdges())), rng.Float64()); err != nil {
			t.Fatal(err)
		}
		after := mem.Count.Snapshot()
		want := before
		want.EdgeInfo++
		if after != want {
			t.Fatalf("insert %d: source calls %+v → %+v, want exactly one more EdgeInfo", i, before, after)
		}
	}
}

func TestMaintainerTopK(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		inst := testnet.Generate(seed, testnet.ShapeOf(seed))
		m, err := New(expand.NewMemorySource(inst.G), inst.Loc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		entries, scores, err := m.TopK(inst.Agg, inst.K)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(scores) {
			t.Fatal("entries/scores length mismatch")
		}
		for i := 1; i < len(scores); i++ {
			if scores[i] < scores[i-1] {
				t.Fatalf("scores not ascending: %v", scores)
			}
		}
		for i, e := range entries {
			if want := inst.Agg.Score(e.Costs); want != scores[i] {
				t.Fatalf("score mismatch for %d: %g vs %g", e.Handle, scores[i], want)
			}
		}
	}
}

func TestMaintainerErrors(t *testing.T) {
	inst := testnet.Generate(702, testnet.Shape{D: 2})
	g := inst.G
	m, err := New(expand.NewMemorySource(g), inst.Loc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(Handle(1 << 40)); err == nil {
		t.Error("deleting unknown handle succeeded")
	}
	before := m.Len()
	for _, f := range []float64{-0.5, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := m.Insert(0, f); err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
			t.Errorf("Insert(0, %g): err = %v, want a fraction outside [0,1]", f, err)
		}
	}
	if _, err := m.Insert(graph.EdgeID(g.NumEdges()), 0.5); err == nil {
		t.Error("inserting on an edge beyond the network succeeded")
	}
	if m.Len() != before {
		t.Errorf("failed inserts changed the maintained set: %d entries, want %d", m.Len(), before)
	}
	if _, _, err := m.TopK(vec.NewWeighted(make([]float64, g.D())...), 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestMaintainerEntryLookup(t *testing.T) {
	inst := testnet.Generate(703, testnet.Shape{D: 2})
	m, err := New(expand.NewMemorySource(inst.G), inst.Loc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Insert(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := m.Entry(h)
	if !ok || e.Edge != 0 || e.T != 0.5 {
		t.Errorf("Entry(%d) = %+v, %v", h, e, ok)
	}
	if _, ok := m.Entry(Handle(1 << 40)); ok {
		t.Error("unknown handle found")
	}
}
