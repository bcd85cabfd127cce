package graph

import "fmt"

// Location is a query position on the network: a point on edge Edge at
// fraction T from the edge's U end-node. The paper's query location q "must
// fall on the MCN" (Sec. III); positions at T=0 or T=1 coincide with the
// edge's end-nodes.
type Location struct {
	Edge EdgeID
	T    float64
}

// LocationAt returns a validated location on edge e at fraction t.
func LocationAt(g *Graph, e EdgeID, t float64) (Location, error) {
	if int(e) >= g.NumEdges() {
		return Location{}, fmt.Errorf("graph: location edge %d out of range (%d edges)", e, g.NumEdges())
	}
	if t < 0 || t > 1 {
		return Location{}, fmt.Errorf("graph: location fraction %g outside [0,1]", t)
	}
	return Location{Edge: e, T: t}, nil
}

// LocationAtNode returns a location coinciding with node v, using any edge
// incident to v. It fails for isolated nodes, which cannot host a query
// (nothing is reachable from them anyway).
func LocationAtNode(g *Graph, v NodeID) (Location, error) {
	if int(v) >= g.NumNodes() {
		return Location{}, fmt.Errorf("graph: node %d out of range (%d nodes)", v, g.NumNodes())
	}
	arcs := g.Arcs(v)
	if len(arcs) > 0 {
		a := arcs[0]
		if a.Forward {
			return Location{Edge: a.Edge, T: 0}, nil
		}
		return Location{Edge: a.Edge, T: 1}, nil
	}
	// Directed graphs: v may only have incoming edges; scan for one.
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(EdgeID(e))
		if edge.U == v {
			return Location{Edge: EdgeID(e), T: 0}, nil
		}
		if edge.V == v {
			return Location{Edge: EdgeID(e), T: 1}, nil
		}
	}
	return Location{}, fmt.Errorf("graph: node %d is isolated; cannot place a query there", v)
}

// Validate checks the location against g.
func (l Location) Validate(g *Graph) error {
	_, err := LocationAt(g, l.Edge, l.T)
	return err
}
