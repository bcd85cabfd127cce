// Package paretopath implements multi-criteria Pareto path computation
// (MCPP, paper Sec. II-D): given a source and a destination in a multi-cost
// network, it returns the skyline over all paths between them — one path per
// non-dominated cost vector. The paper contrasts MCPP with its MCN skyline
// (path skyline vs facility skyline). It is not one of the preference
// queries the library answers: the logistics example uses it to materialise
// the Pareto routes to a facility chosen from an MCN skyline.
//
// The implementation is a Martins-style label-correcting search: per-node
// Pareto frontiers of labels, a global queue ordered by cost sum, dominance
// pruning at insertion and at pop. With non-negative costs the label set is
// finite and the search terminates with the exact Pareto set of cost
// vectors.
package paretopath

import (
	"fmt"
	"sort"

	"mcn/internal/graph"
	"mcn/internal/vec"
)

// Path is one Pareto-optimal route: its cost vector and the edges traversed
// in order.
type Path struct {
	Costs vec.Costs
	Edges []graph.EdgeID
}

// Options bounds the search.
type Options struct {
	// MaxLabels caps the total number of labels created; 0 means unlimited.
	// Pareto path sets can grow exponentially in pathological networks; the
	// cap turns runaway queries into an error.
	MaxLabels int
	// Epsilon enables ε-dominance pruning (Tsaggouris & Zaroliagis style):
	// a label is discarded when an existing label at the node is within a
	// (1+ε) factor on every cost component. Zero keeps the search exact.
	// With ε > 0 the result is an approximate Pareto set: every discarded
	// alternative was (1+ε)-covered at the node where it was pruned; over a
	// route the slack can compound by at most (1+ε) per pruned predecessor.
	// Small values (0.01–0.05) typically collapse exponential frontiers to
	// manageable sizes.
	Epsilon float64
	// Interrupt, when set, is polled once per label pop; a non-nil return
	// aborts the search with that error; pass ctx.Err to bind a context's
	// cancellation and deadline.
	Interrupt func() error
}

// ErrLabelLimit is returned (wrapped) when MaxLabels is exceeded.
var ErrLabelLimit = fmt.Errorf("paretopath: label limit exceeded")

type label struct {
	node  graph.NodeID
	costs vec.Costs
	sum   float64
	pred  *label
	via   graph.EdgeID
}

// labelQueue is a min-heap on (sum, insertion order).
type labelQueue struct {
	a   []*label
	seq []int
	n   int
}

func (q *labelQueue) push(l *label) {
	q.a = append(q.a, l)
	q.seq = append(q.seq, q.n)
	q.n++
	i := len(q.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.swap(i, p)
		i = p
	}
}

func (q *labelQueue) less(i, j int) bool {
	if q.a[i].sum != q.a[j].sum {
		return q.a[i].sum < q.a[j].sum
	}
	return q.seq[i] < q.seq[j]
}

func (q *labelQueue) swap(i, j int) {
	q.a[i], q.a[j] = q.a[j], q.a[i]
	q.seq[i], q.seq[j] = q.seq[j], q.seq[i]
}

func (q *labelQueue) pop() (*label, bool) {
	if len(q.a) == 0 {
		return nil, false
	}
	top := q.a[0]
	last := len(q.a) - 1
	q.swap(0, last)
	q.a = q.a[:last]
	q.seq = q.seq[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q.a) && q.less(l, small) {
			small = l
		}
		if r < len(q.a) && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q.swap(i, small)
		i = small
	}
	return top, true
}

// frontier is a per-node set of mutually non-dominated cost vectors.
type frontier struct {
	labels []*label
	eps    float64
}

// insert adds l unless it is weakly dominated by (or, with ε-pruning,
// (1+ε)-covered by) an existing label; existing labels dominated by l are
// removed. Reports whether l was kept.
func (f *frontier) insert(l *label) bool {
	for _, e := range f.labels {
		if f.covers(e.costs, l.costs) {
			return false
		}
	}
	keep := f.labels[:0]
	for _, e := range f.labels {
		if !l.costs.Dominates(e.costs) {
			keep = append(keep, e)
		}
	}
	f.labels = append(keep, l)
	return true
}

// covers reports whether a renders b redundant: weak dominance, relaxed by
// the (1+ε) factor when ε-pruning is on.
func (f *frontier) covers(a, b vec.Costs) bool {
	if f.eps == 0 {
		return a.WeaklyDominates(b)
	}
	scale := 1 + f.eps
	for i := range a {
		if a[i] > b[i]*scale {
			return false
		}
	}
	return true
}

// Paths computes the Pareto path set from node `from` to node `to` in g.
// Paths are returned sorted by their first cost component; a zero-length
// path (from == to) has an empty edge list and zero costs.
func Paths(g *graph.Graph, from, to graph.NodeID, opt Options) ([]Path, error) {
	if int(from) >= g.NumNodes() || int(to) >= g.NumNodes() {
		return nil, fmt.Errorf("paretopath: node out of range (%d, %d; have %d)", from, to, g.NumNodes())
	}
	fronts := make(map[graph.NodeID]*frontier)
	created := 0
	newLabel := func(node graph.NodeID, costs vec.Costs, pred *label, via graph.EdgeID) (*label, error) {
		created++
		if opt.MaxLabels > 0 && created > opt.MaxLabels {
			return nil, fmt.Errorf("%w (%d labels)", ErrLabelLimit, opt.MaxLabels)
		}
		sum := 0.0
		for _, c := range costs {
			sum += c
		}
		return &label{node: node, costs: costs, sum: sum, pred: pred, via: via}, nil
	}

	var q labelQueue
	start, err := newLabel(from, make(vec.Costs, g.D()), nil, 0)
	if err != nil {
		return nil, err
	}
	fronts[from] = &frontier{eps: opt.Epsilon}
	fronts[from].insert(start)
	q.push(start)

	for {
		if opt.Interrupt != nil {
			if err := opt.Interrupt(); err != nil {
				return nil, err
			}
		}
		l, ok := q.pop()
		if !ok {
			break
		}
		// The label may have been dominated after being queued.
		if !contains(fronts[l.node], l) {
			continue
		}
		for _, arc := range g.Arcs(l.node) {
			w := g.Edge(arc.Edge).W
			next, err := newLabel(arc.Neighbor, l.costs.Add(w), l, arc.Edge)
			if err != nil {
				return nil, err
			}
			fr := fronts[arc.Neighbor]
			if fr == nil {
				fr = &frontier{eps: opt.Epsilon}
				fronts[arc.Neighbor] = fr
			}
			if fr.insert(next) {
				q.push(next)
			}
		}
	}

	fr := fronts[to]
	if fr == nil {
		return nil, nil
	}
	out := make([]Path, 0, len(fr.labels))
	for _, l := range fr.labels {
		out = append(out, Path{Costs: l.costs.Clone(), Edges: trace(l)})
	}
	sort.Slice(out, func(i, j int) bool {
		for c := range out[i].Costs {
			if out[i].Costs[c] != out[j].Costs[c] {
				return out[i].Costs[c] < out[j].Costs[c]
			}
		}
		return len(out[i].Edges) < len(out[j].Edges)
	})
	return out, nil
}

func contains(f *frontier, l *label) bool {
	if f == nil {
		return false
	}
	for _, e := range f.labels {
		if e == l {
			return true
		}
	}
	return false
}

func trace(l *label) []graph.EdgeID {
	var edges []graph.EdgeID
	for cur := l; cur.pred != nil; cur = cur.pred {
		edges = append(edges, cur.via)
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	return edges
}

// PathsToLocation computes the Pareto path set from a node to an arbitrary
// on-edge location: routes via both end-nodes of the target edge (or only
// the upstream end in directed networks) are combined with the partial edge
// weights and Pareto-filtered.
func PathsToLocation(g *graph.Graph, from graph.NodeID, to graph.Location, opt Options) ([]Path, error) {
	if err := to.Validate(g); err != nil {
		return nil, err
	}
	edge := g.Edge(to.Edge)
	w := edge.W

	viaU, err := Paths(g, from, edge.U, opt)
	if err != nil {
		return nil, err
	}
	var candidates []Path
	for _, p := range viaU {
		candidates = append(candidates, Path{
			Costs: p.Costs.Add(w.Scale(to.T)),
			Edges: append(append([]graph.EdgeID{}, p.Edges...), to.Edge),
		})
	}
	if !g.Directed() {
		viaV, err := Paths(g, from, edge.V, opt)
		if err != nil {
			return nil, err
		}
		for _, p := range viaV {
			candidates = append(candidates, Path{
				Costs: p.Costs.Add(w.Scale(1 - to.T)),
				Edges: append(append([]graph.EdgeID{}, p.Edges...), to.Edge),
			})
		}
	}

	// Pareto-filter the combined candidates.
	var out []Path
	for i, p := range candidates {
		dominated := false
		for j, q := range candidates {
			if i == j {
				continue
			}
			if q.Costs.Dominates(p.Costs) || (q.Costs.Equal(p.Costs) && j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		for c := range out[i].Costs {
			if out[i].Costs[c] != out[j].Costs[c] {
				return out[i].Costs[c] < out[j].Costs[c]
			}
		}
		return len(out[i].Edges) < len(out[j].Edges)
	})
	return out, nil
}
