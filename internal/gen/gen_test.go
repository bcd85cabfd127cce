package gen

import (
	"math"
	"math/rand"
	"testing"

	"mcn/internal/vec"
)

func TestGridStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Grid(4, 3, 0, rng)
	if g.NumNodes() != 12 {
		t.Errorf("nodes = %d, want 12", g.NumNodes())
	}
	// 3 rows * 3 horizontal + 4 cols * 2 vertical = 9 + 8 = 17
	if g.NumEdges() != 17 {
		t.Errorf("edges = %d, want 17", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("grid must be connected")
	}
}

// IsConnected reports whether the topology is a single connected component.
func (t *Topology) IsConnected() bool {
	n := t.NumNodes()
	if n == 0 {
		return true
	}
	uf := newUnionFind(n)
	comps := n
	for e := range t.EU {
		if uf.union(int(t.EU[e]), int(t.EV[e])) {
			comps--
		}
	}
	return comps == 1
}

func TestRoadNetworkProfile(t *testing.T) {
	topo := RoadNetwork(RoadConfig{Nodes: 20_000, Seed: 42})
	if !topo.IsConnected() {
		t.Fatal("road network must be connected")
	}
	ratio := float64(topo.NumEdges()) / float64(topo.NumNodes())
	if math.Abs(ratio-1.2746) > 0.08 {
		t.Errorf("edge/node ratio = %.4f, want ≈ 1.2746 (SF profile)", ratio)
	}
	if topo.NumNodes() < 14_000 || topo.NumNodes() > 30_000 {
		t.Errorf("node count = %d, want roughly 20k", topo.NumNodes())
	}
}

func TestRoadNetworkDeterministic(t *testing.T) {
	a := RoadNetwork(RoadConfig{Nodes: 2_000, Seed: 7})
	b := RoadNetwork(RoadConfig{Nodes: 2_000, Seed: 7})
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed must give same sizes")
	}
	for i := range a.EU {
		if a.EU[i] != b.EU[i] || a.EV[i] != b.EV[i] {
			t.Fatal("same seed must give identical edges")
		}
	}
	c := RoadNetwork(RoadConfig{Nodes: 2_000, Seed: 8})
	same := c.NumNodes() == a.NumNodes() && c.NumEdges() == a.NumEdges()
	if same {
		different := false
		for i := range a.EU {
			if a.EU[i] != c.EU[i] {
				different = true
				break
			}
		}
		if !different {
			t.Error("different seeds produced identical networks")
		}
	}
}

// sampleCorrelation computes the Pearson correlation of the first two cost
// dimensions across edges.
func sampleCorrelation(costs [][]float64) float64 {
	n := float64(len(costs))
	var sx, sy, sxx, syy, sxy float64
	for _, c := range costs {
		x, y := c[0], c[1]
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	cov := sxy/n - (sx/n)*(sy/n)
	vx := sxx/n - (sx/n)*(sx/n)
	vy := syy/n - (sy/n)*(sy/n)
	return cov / math.Sqrt(vx*vy)
}

func TestCostDistributions(t *testing.T) {
	topo := Grid(60, 60, 0.2, rand.New(rand.NewSource(5)))
	for _, tc := range []struct {
		dist Distribution
		lo   float64
		hi   float64
	}{
		{Correlated, 0.5, 1.0},
		{AntiCorrelated, -1.0, -0.1},
		{Independent, -0.35, 0.35},
	} {
		rng := rand.New(rand.NewSource(6))
		costs := AssignCosts(topo, 2, tc.dist, rng)
		// Divide out the length factor to recover the multiplier correlation.
		norm := make([][]float64, len(costs))
		for e := range costs {
			norm[e] = []float64{costs[e][0] / topo.Len[e], costs[e][1] / topo.Len[e]}
		}
		r := sampleCorrelation(norm)
		if r < tc.lo || r > tc.hi {
			t.Errorf("%v: correlation = %.3f, want in [%g, %g]", tc.dist, r, tc.lo, tc.hi)
		}
		for e, c := range costs {
			for i, v := range c {
				if v <= 0 {
					t.Fatalf("%v: non-positive cost %g at edge %d dim %d", tc.dist, v, e, i)
				}
			}
		}
	}
}

func TestParseDistribution(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Distribution
	}{
		{"independent", Independent}, {"ind", Independent},
		{"correlated", Correlated}, {"corr", Correlated},
		{"anti-correlated", AntiCorrelated}, {"anti", AntiCorrelated},
	} {
		got, err := ParseDistribution(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseDistribution(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseDistribution("bogus"); err == nil {
		t.Error("bogus distribution accepted")
	}
}

func TestClusteredFacilities(t *testing.T) {
	topo := Grid(50, 50, 0.2, rand.New(rand.NewSource(9)))
	cfg := ClusterConfig{Count: 2_000, Clusters: 5, Seed: 10}
	pls := ClusteredFacilities(topo, cfg)
	if len(pls) != cfg.Count {
		t.Fatalf("placed %d facilities, want %d", len(pls), cfg.Count)
	}
	distinct := make(map[uint32]bool)
	for _, p := range pls {
		if int(p.Edge) >= topo.NumEdges() {
			t.Fatalf("placement on out-of-range edge %d", p.Edge)
		}
		if p.T < 0 || p.T >= 1 {
			t.Fatalf("placement fraction %g outside [0,1)", p.T)
		}
		distinct[p.Edge] = true
	}
	// Clustering must concentrate facilities: the number of distinct edges
	// used should be well below both the facility count and the edge count.
	if len(distinct) > topo.NumEdges()/2 {
		t.Errorf("facilities touch %d/%d edges; clustering looks uniform", len(distinct), topo.NumEdges())
	}
}

func TestUniformFacilities(t *testing.T) {
	topo := Grid(30, 30, 0, rand.New(rand.NewSource(11)))
	pls := UniformFacilities(topo, 5_000, rand.New(rand.NewSource(12)))
	distinct := make(map[uint32]bool)
	for _, p := range pls {
		distinct[p.Edge] = true
	}
	// With 5000 placements over ~1740 edges nearly all edges get one.
	if len(distinct) < topo.NumEdges()/2 {
		t.Errorf("uniform placement too concentrated: %d/%d edges", len(distinct), topo.NumEdges())
	}
}

func TestAssemble(t *testing.T) {
	topo := Grid(4, 1, 0, rand.New(rand.NewSource(1)))
	costs := []vec.Costs{vec.Of(1, 1), vec.Of(1, 1), vec.Of(1, 1)}
	pls := []Placement{{Edge: 0, T: 0.5}, {Edge: 2, T: 0.25}}
	g, err := Assemble(topo, costs, pls, false)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 || g.NumFacilities() != 2 {
		t.Errorf("sizes = (%d,%d,%d)", g.NumNodes(), g.NumEdges(), g.NumFacilities())
	}
	if g.D() != 2 {
		t.Errorf("D = %d, want 2", g.D())
	}
}

func TestAssembleSizeMismatch(t *testing.T) {
	topo := Grid(4, 1, 0, rand.New(rand.NewSource(1)))
	costs := []vec.Costs{vec.Of(1, 1)}
	if _, err := Assemble(topo, costs, nil, false); err == nil {
		t.Error("mismatched cost count accepted")
	}
}

func TestMakeInstanceSmall(t *testing.T) {
	inst, err := MakeInstance(InstanceConfig{
		Nodes: 3_000, Facilities: 500, Clusters: 4, D: 3, Queries: 10, Seed: 20,
	})
	if err != nil {
		t.Fatalf("MakeInstance: %v", err)
	}
	g := inst.Graph
	if g.D() != 3 {
		t.Errorf("D = %d", g.D())
	}
	if g.NumFacilities() != 500 {
		t.Errorf("facilities = %d", g.NumFacilities())
	}
	if len(inst.Queries) != 10 {
		t.Errorf("queries = %d", len(inst.Queries))
	}
	for _, q := range inst.Queries {
		if err := q.Validate(g); err != nil {
			t.Fatalf("invalid query location: %v", err)
		}
	}
}

func TestSubdivisionPreservesConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	topo := Grid(20, 20, 0.1, rng)
	pruneConnected(topo, 0.18, rng)
	if !topo.IsConnected() {
		t.Fatal("pruning disconnected the grid")
	}
	subdivideToRatio(topo, 1.2746, rng)
	if !topo.IsConnected() {
		t.Fatal("subdivision disconnected the network")
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	if !uf.union(0, 1) {
		t.Error("first union must merge")
	}
	if uf.union(1, 0) {
		t.Error("repeat union must report same set")
	}
	uf.union(2, 3)
	if uf.find(0) == uf.find(2) {
		t.Error("separate sets must differ")
	}
	uf.union(1, 3)
	if uf.find(0) != uf.find(2) {
		t.Error("merged sets must share root")
	}
	if uf.find(4) == uf.find(0) {
		t.Error("singleton must stay apart")
	}
}
