package paretopath

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// bruteParetoCosts enumerates all simple paths from -> to by DFS and returns
// the Pareto-optimal cost vectors, sorted. With non-negative weights, cycles
// never improve a vector, so simple paths cover the Pareto cost set.
func bruteParetoCosts(g *graph.Graph, from, to graph.NodeID) []vec.Costs {
	var all []vec.Costs
	visited := make([]bool, g.NumNodes())
	var dfs func(v graph.NodeID, acc vec.Costs)
	dfs = func(v graph.NodeID, acc vec.Costs) {
		if v == to {
			all = append(all, acc.Clone())
			// Continue: paths through `to` and back are never Pareto-better,
			// so stopping here is safe for the cost set.
			return
		}
		visited[v] = true
		for _, a := range g.Arcs(v) {
			if visited[a.Neighbor] {
				continue
			}
			dfs(a.Neighbor, acc.Add(g.Edge(a.Edge).W))
		}
		visited[v] = false
	}
	dfs(from, make(vec.Costs, g.D()))

	var front []vec.Costs
	for i, c := range all {
		dom := false
		for j, o := range all {
			if i == j {
				continue
			}
			if o.Dominates(c) || (o.Equal(c) && j < i) {
				dom = true
				break
			}
		}
		if !dom {
			front = append(front, c)
		}
	}
	sortCosts(front)
	return front
}

func sortCosts(cs []vec.Costs) {
	sort.Slice(cs, func(i, j int) bool {
		for k := range cs[i] {
			if cs[i][k] != cs[j][k] {
				return cs[i][k] < cs[j][k]
			}
		}
		return false
	})
}

func costsOf(paths []Path) []vec.Costs {
	out := make([]vec.Costs, len(paths))
	for i, p := range paths {
		out[i] = p.Costs
	}
	sortCosts(out)
	return out
}

func equalCostSets(a, b []vec.Costs) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for k := range a[i] {
			if math.Abs(a[i][k]-b[i][k]) > 1e-9*(1+math.Abs(b[i][k])) {
				return false
			}
		}
	}
	return true
}

func TestPathsDiamond(t *testing.T) {
	// Two routes 0→3: top is fast/expensive, bottom slow/cheap; both Pareto.
	b := graph.NewBuilder(2, false)
	testnet.AddNodes(b, 4)
	b.AddEdge(0, 1, vec.Of(1, 5))
	b.AddEdge(1, 3, vec.Of(1, 5))
	b.AddEdge(0, 2, vec.Of(4, 1))
	b.AddEdge(2, 3, vec.Of(4, 1))
	g := testnet.MustBuild(b)
	paths, err := Paths(g, 0, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d Pareto paths, want 2: %+v", len(paths), paths)
	}
	want := []vec.Costs{vec.Of(2, 10), vec.Of(8, 2)}
	if !equalCostSets(costsOf(paths), want) {
		t.Errorf("costs = %v, want %v", costsOf(paths), want)
	}
	for _, p := range paths {
		if len(p.Edges) != 2 {
			t.Errorf("path %v should traverse 2 edges", p)
		}
	}
}

func TestPathsDominatedRouteExcluded(t *testing.T) {
	b := graph.NewBuilder(2, false)
	testnet.AddNodes(b, 3)
	b.AddEdge(0, 2, vec.Of(1, 1))
	b.AddEdge(0, 1, vec.Of(1, 1))
	b.AddEdge(1, 2, vec.Of(1, 1))
	g := testnet.MustBuild(b)
	paths, err := Paths(g, 0, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || !paths[0].Costs.Equal(vec.Of(1, 1)) {
		t.Errorf("paths = %+v, want only the direct edge", paths)
	}
}

func TestPathsSameNode(t *testing.T) {
	b := graph.NewBuilder(2, false)
	testnet.AddNodes(b, 2)
	b.AddEdge(0, 1, vec.Of(1, 1))
	g := testnet.MustBuild(b)
	paths, err := Paths(g, 0, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0].Edges) != 0 || !paths[0].Costs.Equal(vec.Of(0, 0)) {
		t.Errorf("self paths = %+v, want single empty path", paths)
	}
}

func TestPathsUnreachable(t *testing.T) {
	b := graph.NewBuilder(1, true)
	testnet.AddNodes(b, 2)
	b.AddEdge(1, 0, vec.Of(1)) // only 1→0; 0→1 unreachable
	g := testnet.MustBuild(b)
	paths, err := Paths(g, 0, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Errorf("unreachable destination returned %d paths", len(paths))
	}
}

func TestPathsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	for trial := 0; trial < 120; trial++ {
		d := 2 + rng.Intn(2)
		n := 2 + rng.Intn(8)
		topo := testnet.RandomConnected(n, rng.Intn(6), rng)
		var costs []vec.Costs
		if trial%2 == 0 {
			costs = gen.RandomIntegerCosts(topo, d, 3, rng)
		} else {
			costs = gen.AssignCosts(topo, d, gen.AntiCorrelated, rng)
		}
		directed := rng.Intn(3) == 0
		g, err := gen.Assemble(topo, costs, nil, directed)
		if err != nil {
			t.Fatal(err)
		}
		from := graph.NodeID(rng.Intn(n))
		to := graph.NodeID(rng.Intn(n))

		want := bruteParetoCosts(g, from, to)
		paths, err := Paths(g, from, to, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := costsOf(paths)
		if !equalCostSets(got, want) {
			t.Fatalf("trial %d (%d nodes, d=%d, directed=%v, %d→%d):\n got %v\nwant %v",
				trial, n, d, directed, from, to, got, want)
		}
		// Each returned path's edges must re-sum to its cost vector.
		for _, p := range paths {
			sum := make(vec.Costs, d)
			for _, e := range p.Edges {
				sum = sum.Add(g.Edge(e).W)
			}
			if !equalCostSets([]vec.Costs{sum}, []vec.Costs{p.Costs}) {
				t.Fatalf("trial %d: path edges sum to %v, reported %v", trial, sum, p.Costs)
			}
		}
	}
}

func TestPathsLabelLimit(t *testing.T) {
	// A ladder of parallel 2-cost choices yields exponentially many Pareto
	// paths; the label cap must trip cleanly.
	b := graph.NewBuilder(2, false)
	const rungs = 12
	testnet.AddNodes(b, rungs+1)
	for i := 0; i < rungs; i++ {
		u, v := graph.NodeID(i), graph.NodeID(i+1)
		b.AddEdge(u, v, vec.Of(1, float64(2+i)))
		b.AddEdge(u, v, vec.Of(float64(2+i), 1))
	}
	g := testnet.MustBuild(b)
	_, err := Paths(g, 0, rungs, Options{MaxLabels: 100})
	if !errors.Is(err, ErrLabelLimit) {
		t.Errorf("err = %v, want ErrLabelLimit", err)
	}
	// Unbounded must succeed and return many paths.
	paths, err := Paths(g, 0, rungs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 50 {
		t.Errorf("expected a large Pareto set, got %d", len(paths))
	}
}

func TestPathsToLocation(t *testing.T) {
	// Query location mid-edge: approaching from either side must be
	// considered.
	b := graph.NewBuilder(2, false)
	testnet.AddNodes(b, 3)
	b.AddEdge(0, 1, vec.Of(10, 1))
	e1 := b.AddEdge(1, 2, vec.Of(4, 4))
	b.AddEdge(0, 2, vec.Of(1, 10))
	g := testnet.MustBuild(b)
	paths, err := PathsToLocation(g, 0, graph.Location{Edge: e1, T: 0.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("expected at least 2 Pareto routes to mid-edge location, got %d", len(paths))
	}
	// Via node 1: (10,1)+(2,2) = (12,3); via node 2: (1,10)+(2,2) = (3,12).
	want := []vec.Costs{vec.Of(3, 12), vec.Of(12, 3)}
	if !equalCostSets(costsOf(paths), want) {
		t.Errorf("costs = %v, want %v", costsOf(paths), want)
	}
	for _, p := range paths {
		if p.Edges[len(p.Edges)-1] != e1 {
			t.Errorf("route must end on the target edge: %v", p.Edges)
		}
	}
}

func TestPathsToLocationInvalid(t *testing.T) {
	b := graph.NewBuilder(1, false)
	testnet.AddNodes(b, 2)
	b.AddEdge(0, 1, vec.Of(1))
	g := testnet.MustBuild(b)
	if _, err := PathsToLocation(g, 0, graph.Location{Edge: 9, T: 0.5}, Options{}); err == nil {
		t.Error("invalid location accepted")
	}
}

// cityGraph is a 3x2 grid of intersections with two trade-off routes from
// corner 0 to corner 5.
func cityGraph() *graph.Graph {
	b := graph.NewBuilder(2, false)
	var n [6]graph.NodeID
	for i := range n {
		n[i] = b.AddNode(float64(i%3), float64(i/3))
	}
	b.AddEdge(n[0], n[1], vec.Of(2, 5))
	b.AddEdge(n[1], n[2], vec.Of(3, 3))
	b.AddEdge(n[3], n[4], vec.Of(4, 2))
	b.AddEdge(n[4], n[5], vec.Of(2, 2))
	b.AddEdge(n[0], n[3], vec.Of(1, 6))
	b.AddEdge(n[1], n[4], vec.Of(2, 2))
	b.AddEdge(n[2], n[5], vec.Of(5, 1))
	return testnet.MustBuild(b)
}

func TestPathsCityGridNonDominated(t *testing.T) {
	paths, err := Paths(cityGraph(), 0, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no Pareto paths found")
	}
	for i, p := range paths {
		for j, q := range paths {
			if i != j && q.Costs.Dominates(p.Costs) {
				t.Errorf("returned path %d dominated by %d", i, j)
			}
		}
	}
}

func TestPathsToLocationAndApprox(t *testing.T) {
	g := cityGraph()
	exact, err := PathsToLocation(g, 0, graph.Location{Edge: 3, T: 0.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) == 0 {
		t.Fatal("no Pareto routes to location")
	}
	approx, err := Paths(g, 0, 5, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	exactN, err := Paths(g, 0, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(approx) > len(exactN) {
		t.Errorf("epsilon pruning grew the frontier: %d > %d", len(approx), len(exactN))
	}
}

func TestInterruptAbortsSearch(t *testing.T) {
	b := graph.NewBuilder(2, false)
	testnet.AddNodes(b, 3)
	b.AddEdge(0, 1, vec.Of(1, 2))
	b.AddEdge(1, 2, vec.Of(2, 1))
	g := testnet.MustBuild(b)
	stop := errors.New("stop")
	opt := Options{Interrupt: func() error { return stop }}
	t.Run("Paths", func(t *testing.T) {
		if _, err := Paths(g, 0, 1, opt); !errors.Is(err, stop) {
			t.Errorf("err = %v, want the interrupt's error", err)
		}
	})
	t.Run("PathsToLocation", func(t *testing.T) {
		if _, err := PathsToLocation(g, 0, graph.Location{Edge: 0, T: 0.5}, opt); !errors.Is(err, stop) {
			t.Errorf("err = %v, want the interrupt's error", err)
		}
	})
	t.Run("PathsApprox", func(t *testing.T) {
		opt := opt
		opt.Epsilon = 0.1
		if _, err := Paths(g, 0, 1, opt); !errors.Is(err, stop) {
			t.Errorf("err = %v, want the interrupt's error", err)
		}
	})
}
