package testnet

import (
	"math"
	"math/rand"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// Path returns the n-node path v0—v1—…—v(n-1) with unit spacing.
func Path(n int) *gen.Topology {
	t := &gen.Topology{}
	for i := 0; i < n; i++ {
		t.X, t.Y = append(t.X, float64(i)), append(t.Y, 0)
	}
	for i := 0; i+1 < n; i++ {
		addEdge(t, uint32(i), uint32(i+1))
	}
	return t
}

// RandomConnected returns a connected topology on n ≥ 1 nodes: a random
// spanning tree plus up to extra random non-parallel edges.
func RandomConnected(n, extra int, rng *rand.Rand) *gen.Topology {
	t := &gen.Topology{}
	for i := 0; i < n; i++ {
		t.X, t.Y = append(t.X, rng.Float64()*float64(n)), append(t.Y, rng.Float64()*float64(n))
	}
	perm := rng.Perm(n)
	seen := map[[2]uint32]bool{}
	key := func(u, v uint32) [2]uint32 { return [2]uint32{min(u, v), max(u, v)} }
	for i := 1; i < n; i++ {
		u, v := uint32(perm[rng.Intn(i)]), uint32(perm[i])
		seen[key(u, v)] = true
		addEdge(t, u, v)
	}
	for tries := 0; extra > 0 && tries < 50*extra && n > 2; tries++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u == v || seen[key(u, v)] {
			continue
		}
		seen[key(u, v)] = true
		addEdge(t, u, v)
		extra--
	}
	return t
}

func addEdge(t *gen.Topology, u, v uint32) {
	t.EU, t.EV = append(t.EU, u), append(t.EV, v)
	t.Len = append(t.Len, math.Hypot(t.X[u]-t.X[v], t.Y[u]-t.Y[v]))
}

// UnitCosts gives every edge its Euclidean length in all d cost types, for
// tests that need predictable distances.
func UnitCosts(t *gen.Topology, d int) []vec.Costs {
	out := make([]vec.Costs, t.NumEdges())
	for e := range out {
		out[e] = make(vec.Costs, d)
		for i := range out[e] {
			out[e][i] = t.Len[e]
		}
	}
	return out
}

// AddNodes appends n nodes at the origin to b, for a purely topological
// network, and returns the first new id.
func AddNodes(b *graph.Builder, n int) graph.NodeID {
	first := b.AddNode(0, 0)
	for i := 1; i < n; i++ {
		b.AddNode(0, 0)
	}
	return first
}

// MustBuild builds b and panics on a builder error.
func MustBuild(b *graph.Builder) *graph.Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Scaled returns a copy of g whose edge e costs g's costs times mult(e)
// component-wise (unscaled where mult returns nil): the static network a
// time-dependent one is at an instant, for an oracle to run on.
func Scaled(g *graph.Graph, mult func(graph.EdgeID) vec.Costs) *graph.Graph {
	b := graph.NewBuilder(g.D(), g.Directed())
	for v := 0; v < g.NumNodes(); v++ {
		node := g.Node(graph.NodeID(v))
		b.AddNode(node.X, node.Y)
	}
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(graph.EdgeID(e))
		w := edge.W
		if m := mult(graph.EdgeID(e)); m != nil {
			w = make(vec.Costs, len(edge.W))
			for i := range w {
				w[i] = edge.W[i] * m[i]
			}
		}
		b.AddEdge(edge.U, edge.V, w)
	}
	for f := 0; f < g.NumFacilities(); f++ {
		fac := g.Facility(graph.FacilityID(f))
		b.AddFacility(fac.Edge, fac.T)
	}
	return MustBuild(b)
}
