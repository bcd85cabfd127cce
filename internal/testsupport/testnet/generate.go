package testnet

import (
	"fmt"
	"math/rand"

	"mcn/internal/graph"
	"mcn/internal/vec"
)

// Shape is what a caller fixes about a generated instance; Generate draws
// everything else from the seed.
type Shape struct {
	D        int // cost types, 1…5
	Directed bool
	// Nodes, when set, fixes the node count, and the facility count
	// becomes a fifth of it; otherwise both are small and random.
	Nodes int
	// Continuous draws edge costs from [0, 4) and the fractions of
	// facilities and query locations from [0, 1), so that a cost is a sum
	// whose bits depend on the order of its terms; a facility on the query
	// edge then lies exactly at q a third of the time.
	Continuous bool
}

// ShapeOf spreads seeds over every shape: d = 1…5, each undirected and
// directed, so consecutive seeds cycle through all ten.
func ShapeOf(seed int64) Shape {
	s := int(uint64(seed) % 10)
	return Shape{D: 1 + s%5, Directed: s >= 5}
}

// Instance is a network with the parameters of one query of every kind.
type Instance struct {
	Name string
	G    *graph.Graph
	Loc  graph.Location
	// Locs are the locations of a multi-source query; some repeat.
	Locs []graph.Location
	// CostIdx is the cost type of a nearest or multi-source query.
	CostIdx int
	// K is the size of a top-k or nearest query, 1 … |P|+2.
	K int
	// Agg scores a top-k query (G.D() costs); MultiAgg a multi-source one
	// (len(Locs) costs).
	Agg, MultiAgg vec.Aggregate
	// Budget bounds a within query.
	Budget vec.Costs
}

func (in *Instance) String() string {
	if in.Name != "" {
		return in.Name
	}
	return fmt.Sprintf("d=%d directed=%v |V|=%d |E|=%d |P|=%d", in.G.D(), in.G.Directed(),
		in.G.NumNodes(), in.G.NumEdges(), in.G.NumFacilities())
}

// fractions are the only edge fractions Generate uses, for facilities and
// query locations alike, unless the shape is continuous: a facility on the
// query edge lies ahead of q, behind it or exactly at it, and every cost
// stays an exact binary fraction.
var fractions = []float64{0, 0.5, 1}

// Generate builds an instance, small unless shape.Nodes says otherwise,
// biased toward the cases query algorithms get wrong: integer costs in {0, 1,
// 2}, so zero-length edges and exact cost ties are common (unless
// shape.Continuous); parallel edges; up to three components, so
// facilities and multi-source locations lie where others cannot reach;
// one-way edges in both directions when shape is directed; facilities at
// an end or the middle of their edge, some on the query edge itself; no
// facilities at all now and then; k up to |P|+2; and repeated multi-source
// locations. Node coordinates are random, and now and then snapped to a
// 3×3 grid, so a locality numbering is far from the identity and has ties.
// The same (seed, shape) always gives the same instance.
func Generate(seed int64, shape Shape) *Instance {
	rng := rand.New(rand.NewSource(seed))
	d := shape.D
	n := 2 + rng.Intn(11)
	if shape.Nodes > 0 {
		n = shape.Nodes
	}
	b := graph.NewBuilder(d, shape.Directed)
	snap := rng.Intn(4) == 0
	for v := 0; v < n; v++ {
		x, y := rng.Float64(), rng.Float64()
		if snap {
			x, y = float64(int(3*x)), float64(int(3*y))
		}
		b.AddNode(x, y)
	}
	costs := func() vec.Costs {
		w := make(vec.Costs, d)
		for i := range w {
			if shape.Continuous {
				w[i] = 4 * rng.Float64()
			} else {
				w[i] = float64(rng.Intn(3))
			}
		}
		return w
	}
	fraction := func() float64 {
		if shape.Continuous {
			return rng.Float64()
		}
		return fractions[rng.Intn(3)]
	}
	// Node v belongs to component v % comps; a random tree spans each.
	comps := 1
	if n >= 4 && rng.Intn(2) == 0 {
		comps = 2 + rng.Intn(min(2, n/2-1))
	}
	type pair struct{ u, v graph.NodeID }
	var ends []pair
	addEdge := func(u, v graph.NodeID) {
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		b.AddEdge(u, v, costs())
		ends = append(ends, pair{u, v})
	}
	for v := comps; v < n; v++ {
		u := v % comps
		u += comps * rng.Intn((v-u)/comps)
		addEdge(graph.NodeID(u), graph.NodeID(v))
	}
	for i := rng.Intn(n); i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && u%comps == v%comps {
			addEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	for i := rng.Intn(3); i > 0; i-- { // parallel edges
		p := ends[rng.Intn(len(ends))]
		addEdge(p.u, p.v)
	}

	loc := graph.Location{Edge: graph.EdgeID(rng.Intn(len(ends))), T: fraction()}
	nf := rng.Intn(9)
	if rng.Intn(8) == 0 {
		nf = 0
	}
	if shape.Nodes > 0 {
		nf = n / 5
	}
	for i := 0; i < nf; i++ {
		e := graph.EdgeID(rng.Intn(len(ends)))
		if rng.Intn(4) == 0 {
			e = loc.Edge
		}
		t := fraction()
		if e == loc.Edge && shape.Continuous && rng.Intn(3) == 0 {
			t = loc.T
		}
		b.AddFacility(e, t)
	}
	g := MustBuild(b)

	locs := []graph.Location{loc}
	for i := rng.Intn(3); i > 0; i-- {
		if rng.Intn(3) == 0 {
			locs = append(locs, locs[rng.Intn(len(locs))])
		} else {
			locs = append(locs, graph.Location{Edge: graph.EdgeID(rng.Intn(len(ends))), T: fraction()})
		}
	}
	rng.Shuffle(len(locs), func(i, j int) { locs[i], locs[j] = locs[j], locs[i] })
	budget := make(vec.Costs, d)
	for i := range budget {
		budget[i] = float64(rng.Intn(6))
	}
	return &Instance{
		G:        g,
		Loc:      loc,
		Locs:     locs,
		CostIdx:  rng.Intn(d),
		K:        1 + rng.Intn(nf+2),
		Agg:      aggregate(rng, d),
		MultiAgg: aggregate(rng, len(locs)),
		Budget:   budget,
	}
}

// aggregate draws a weighted sum or, a third of the time, a weighted
// maximum, with coefficients in {1, 2, 3}: scores stay exact, so score ties
// survive, and no zero coefficient multiplies a +Inf component.
func aggregate(rng *rand.Rand, d int) vec.Aggregate {
	coef := make([]float64, d)
	for i := range coef {
		coef[i] = float64(1 + rng.Intn(3))
	}
	if rng.Intn(3) == 0 {
		return vec.NewMax(coef...)
	}
	return vec.NewWeighted(coef...)
}

// WithFacilities rebuilds g with the same nodes and edges (same ids) and
// the given facilities instead of its own: facility i of the result lies at
// fraction ts[i] of edge edges[i].
func WithFacilities(g *graph.Graph, edges []graph.EdgeID, ts []float64) *graph.Graph {
	b := graph.NewBuilder(g.D(), g.Directed())
	for v := 0; v < g.NumNodes(); v++ {
		p := g.Node(graph.NodeID(v))
		b.AddNode(p.X, p.Y)
	}
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(graph.EdgeID(e))
		b.AddEdge(edge.U, edge.V, edge.W)
	}
	for i, e := range edges {
		b.AddFacility(e, ts[i])
	}
	return MustBuild(b)
}
