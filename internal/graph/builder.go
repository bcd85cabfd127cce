package graph

import (
	"fmt"
	"sort"

	"mcn/internal/vec"
)

// Builder incrementally assembles a Graph. The zero value is not usable;
// create builders with NewBuilder.
type Builder struct {
	d        int
	directed bool
	nodes    []Node
	edges    []Edge
	facs     []Facility
	err      error
}

// NewBuilder returns a builder for a network with d cost types. If directed
// is true, each added edge is traversable from U to V only; otherwise both
// directions share the same cost vector (paper Sec. III).
func NewBuilder(d int, directed bool) *Builder {
	if d < 1 {
		panic(fmt.Sprintf("graph: number of cost types must be positive, got %d", d))
	}
	return &Builder{d: d, directed: directed}
}

// AddNode appends a node and returns its identifier.
func (b *Builder) AddNode(x, y float64) NodeID {
	b.nodes = append(b.nodes, Node{X: x, Y: y})
	return NodeID(len(b.nodes) - 1)
}

// AddEdge appends an edge between u and v with the given cost vector and
// returns its identifier. Errors (bad endpoints, wrong dimensionality,
// negative costs) are deferred to Build.
func (b *Builder) AddEdge(u, v NodeID, w vec.Costs) EdgeID {
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{U: u, V: v, W: w.Clone()})
	if b.err == nil {
		if int(u) >= len(b.nodes) || int(v) >= len(b.nodes) {
			b.err = fmt.Errorf("edge %d: endpoint out of range (%d, %d)", id, u, v)
		} else if u == v {
			b.err = fmt.Errorf("edge %d: self-loop at node %d", id, u)
		} else if len(w) != b.d {
			b.err = fmt.Errorf("edge %d: %d costs, want %d", id, len(w), b.d)
		} else if !w.Complete() {
			b.err = fmt.Errorf("edge %d: unknown cost components", id)
		} else if verr := w.Validate(); verr != nil {
			b.err = fmt.Errorf("edge %d: %v", id, verr)
		}
	}
	return id
}

// AddFacility places a facility on edge e at fraction t from the edge's U
// end-node and returns its identifier.
func (b *Builder) AddFacility(e EdgeID, t float64) FacilityID {
	id := FacilityID(len(b.facs))
	b.facs = append(b.facs, Facility{Edge: e, T: t})
	if b.err == nil {
		if int(e) >= len(b.edges) {
			b.err = fmt.Errorf("facility %d: edge %d out of range", id, e)
		} else if t < 0 || t > 1 {
			b.err = fmt.Errorf("facility %d: fraction %g outside [0,1]", id, t)
		}
	}
	return id
}

// Build finalises the graph: adjacency lists are materialised and per-edge
// facility lists are sorted by position. It returns the first accumulated
// construction error, if any.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{
		d:        b.d,
		directed: b.directed,
		nodes:    b.nodes,
		edges:    b.edges,
		facs:     b.facs,
	}
	g.arcs = make([][]Arc, len(g.nodes))
	deg := make([]int, len(g.nodes))
	for _, e := range g.edges {
		deg[e.U]++
		if !b.directed {
			deg[e.V]++
		}
	}
	for v := range g.arcs {
		if deg[v] > 0 {
			g.arcs[v] = make([]Arc, 0, deg[v])
		}
	}
	for i, e := range g.edges {
		id := EdgeID(i)
		g.arcs[e.U] = append(g.arcs[e.U], Arc{Neighbor: e.V, Edge: id, Forward: true})
		if !b.directed {
			g.arcs[e.V] = append(g.arcs[e.V], Arc{Neighbor: e.U, Edge: id, Forward: false})
		}
	}
	g.edgeFacs = make([][]FacilityID, len(g.edges))
	for i, f := range g.facs {
		g.edgeFacs[f.Edge] = append(g.edgeFacs[f.Edge], FacilityID(i))
	}
	for e := range g.edgeFacs {
		facs := g.edgeFacs[e]
		sort.Slice(facs, func(i, j int) bool {
			fi, fj := g.facs[facs[i]], g.facs[facs[j]]
			if fi.T != fj.T {
				return fi.T < fj.T
			}
			return facs[i] < facs[j]
		})
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
