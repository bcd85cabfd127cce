package dynamic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testnet"
	"mcn/internal/vec"
)

// buildInstance creates a random connected undirected network with some
// initial facilities.
func buildInstance(t *testing.T, rng *rand.Rand) (*graph.Graph, graph.Location) {
	t.Helper()
	return buildNetwork(t, rng, false, false)
}

// buildNetwork creates a random network (connected as an undirected graph)
// with some initial facilities; integer costs in [1, 4] make equal-cost
// paths and facility ties common. The query location sits on an edge end or
// its midpoint half of the time, so ties reach the query edge as well.
func buildNetwork(t *testing.T, rng *rand.Rand, directed, integer bool) (*graph.Graph, graph.Location) {
	t.Helper()
	d := 2 + rng.Intn(2)
	n := 3 + rng.Intn(30)
	topo := gen.RandomConnected(n, rng.Intn(n), rng)
	var costs []vec.Costs
	if integer {
		costs = gen.RandomIntegerCosts(topo, d, 4, rng)
	} else {
		costs = gen.AssignCosts(topo, d, gen.Distribution(rng.Intn(3)), rng)
	}
	pls := gen.UniformFacilities(topo, 1+rng.Intn(15), rng)
	g, err := gen.Assemble(topo, costs, pls, directed)
	if err != nil {
		t.Fatal(err)
	}
	return g, graph.Location{Edge: graph.EdgeID(rng.Intn(g.NumEdges())), T: fraction(rng)}
}

// fraction draws an edge fraction, an end or the midpoint half of the time.
func fraction(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return []float64{0, 0.5, 1}[rng.Intn(3)]
	}
	return rng.Float64()
}

// insertSite draws where to insert a facility: a random edge, or, a third of
// the time, the query edge itself — ahead of q, behind it, or exactly at it.
func insertSite(rng *rand.Rand, g *graph.Graph, loc graph.Location) (graph.EdgeID, float64) {
	if rng.Intn(3) > 0 {
		return graph.EdgeID(rng.Intn(g.NumEdges())), fraction(rng)
	}
	switch rng.Intn(3) {
	case 0:
		return loc.Edge, loc.T + rng.Float64()*(1-loc.T)
	case 1:
		return loc.Edge, rng.Float64() * loc.T
	}
	return loc.Edge, loc.T
}

// withFacilities rebuilds g with its nodes and edges (same ids) and one
// facility per site, in order: facility i of the result is sites[i].
func withFacilities(g *graph.Graph, sites []Entry) *graph.Graph {
	b := graph.NewBuilder(g.D(), g.Directed())
	for v := 0; v < g.NumNodes(); v++ {
		n := g.Node(graph.NodeID(v))
		b.AddNode(n.X, n.Y)
	}
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(graph.EdgeID(e))
		b.AddEdge(edge.U, edge.V, edge.W)
	}
	for _, s := range sites {
		b.AddFacility(s.Edge, s.T)
	}
	return b.MustBuild()
}

// oracleSkyline computes the skyline over the maintainer's own entries by a
// quadratic scan, as an independent check of its BNL-based answer.
func oracleSkyline(entries []Entry) []Handle {
	var out []Handle
	for i, e := range entries {
		dom := false
		for j, o := range entries {
			if i != j && o.Costs.Dominates(e.Costs) {
				dom = true
				break
			}
		}
		if !dom {
			out = append(out, e.Handle)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkAgainstRebuild materialises a graph holding exactly the live facility
// set from scratch (core.MaterializeAll) and requires every live entry's
// cost vector to equal it bit for bit. MaterializeAll leaves out facilities
// reachable under no cost type; a live entry missing there must be +Inf
// throughout.
func checkAgainstRebuild(t *testing.T, g *graph.Graph, loc graph.Location, live []Entry, where string) {
	t.Helper()
	vectors, _, err := core.MaterializeAll(expand.NewMemorySource(withFacilities(g, live)), loc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range live {
		want, ok := vectors[graph.FacilityID(i)]
		for c, got := range e.Costs {
			w := math.Inf(1)
			if ok {
				w = want[c]
			}
			if got != w {
				t.Fatalf("%s: facility %d (edge %d, t %g) cost %d = %g, rebuild %g",
					where, e.Handle, e.Edge, e.T, c, got, w)
			}
		}
	}
}

// Random insert/delete sequences on undirected and directed networks, with
// and without integer-cost ties and with inserts on the query edge: after
// every step the skyline must match the quadratic oracle over the
// maintainer's own entries, and the entries must equal a from-scratch
// rebuild exactly.
func TestMaintainerMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	for trial := 0; trial < 80; trial++ {
		g, loc := buildNetwork(t, rng, trial%2 == 1, trial%4 >= 2)
		m, err := New(expand.NewMemorySource(g), loc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		handles := make([]Handle, 0, m.Len())
		for _, e := range m.ordered() {
			handles = append(handles, e.Handle)
		}

		// Random update sequence.
		for step := 0; step < 15; step++ {
			if len(handles) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(handles))
				if err := m.Delete(handles[i]); err != nil {
					t.Fatal(err)
				}
				handles = append(handles[:i], handles[i+1:]...)
			} else {
				h, err := m.Insert(insertSite(rng, g, loc))
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
			}

			// Skyline must match the quadratic oracle over its own entries,
			// and the entries themselves must match a from-scratch rebuild.
			live := m.ordered()
			liveCopies := make([]Entry, len(live))
			for i, e := range live {
				liveCopies[i] = *e
			}
			sky := m.Skyline()
			var got []Handle
			for _, e := range sky {
				got = append(got, e.Handle)
			}
			want := oracleSkyline(liveCopies)
			if len(got) != len(want) {
				t.Fatalf("trial %d step %d: skyline size %d, want %d", trial, step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d step %d: skyline %v, want %v", trial, step, got, want)
				}
			}

			checkAgainstRebuild(t, g, loc, liveCopies, fmt.Sprintf("trial %d step %d", trial, step))
		}
	}
}

// An inserted facility's costs must match the Bellman-Ford oracle on a graph
// rebuilt with it — an oracle that shares no code with the expansion.
func TestInsertMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	for trial := 0; trial < 60; trial++ {
		g, loc := buildNetwork(t, rng, rng.Intn(4) == 0, rng.Intn(2) == 0)
		m, err := New(expand.NewMemorySource(g), loc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, tt := insertSite(rng, g, loc)
		h, err := m.Insert(e, tt)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := m.Entry(h)
		g2 := withFacilities(g, []Entry{got})
		for i := range got.Costs {
			want := testnet.FacilityCosts(g2, loc, i)[0]
			if math.IsInf(want, 1) != math.IsInf(got.Costs[i], 1) {
				t.Fatalf("trial %d: cost %d reachability mismatch (got %g want %g)", trial, i, got.Costs[i], want)
			}
			if !math.IsInf(want, 1) && math.Abs(got.Costs[i]-want) > 1e-9*(1+want) {
				t.Fatalf("trial %d: cost %d = %g, oracle %g", trial, i, got.Costs[i], want)
			}
		}
	}
}

// Insert's deterministic work: exactly one EdgeInfo read and nothing else —
// no adjacency record, no facility record, no traversal.
func TestInsertReadsOneEdgeRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(704))
	g, loc := buildInstance(t, rng)
	mem := expand.NewMemorySource(g)
	m, err := New(mem, loc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		before := mem.Count.Snapshot()
		if _, err := m.Insert(insertSite(rng, g, loc)); err != nil {
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
	rng := rand.New(rand.NewSource(701))
	for trial := 0; trial < 30; trial++ {
		g, loc := buildInstance(t, rng)
		m, err := New(expand.NewMemorySource(g), loc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		coef := make([]float64, g.D())
		for i := range coef {
			coef[i] = rng.Float64()
		}
		agg := vec.NewWeighted(coef...)
		k := 1 + rng.Intn(5)
		entries, scores, err := m.TopK(agg, k)
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
			want := agg.Score(e.Costs)
			if math.IsInf(want, 1) && math.IsInf(scores[i], 1) {
				continue
			}
			if math.Abs(want-scores[i]) > 1e-9 {
				t.Fatalf("score mismatch for %d: %g vs %g", e.Handle, scores[i], want)
			}
		}
	}
}

func TestMaintainerErrors(t *testing.T) {
	g, loc := buildInstance(t, rand.New(rand.NewSource(702)))
	m, err := New(expand.NewMemorySource(g), loc, core.Options{})
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
	g, loc := buildInstance(t, rand.New(rand.NewSource(703)))
	m, err := New(expand.NewMemorySource(g), loc, core.Options{})
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
