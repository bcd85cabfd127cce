// Package gen synthesises multi-cost network workloads: road-like
// topologies, edge-cost distributions (independent, correlated,
// anti-correlated, as in the paper's Sec. VI), clustered facility sets and
// query locations. All generators are seeded and deterministic.
//
// The paper evaluates on the San Francisco road network (174,956 nodes,
// 223,001 edges) from Brinkhoff's generator, which is not redistributable
// here. RoadNetwork reproduces its structural profile — a sparse, almost
// planar graph with edge/node ratio ≈ 1.27 and many degree-2 chain nodes —
// from a jittered grid via connectivity-preserving pruning and edge
// subdivision. The query algorithms use connectivity only, so matching this
// profile preserves their behaviour.
package gen

import (
	"fmt"
	"math"
	"math/rand"
)

// Topology is network structure prior to cost assignment: node coordinates
// and undirected edges with Euclidean lengths.
type Topology struct {
	X, Y   []float64 // node coordinates
	EU, EV []uint32  // edge endpoints
	Len    []float64 // Euclidean edge lengths
}

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return len(t.X) }

// NumEdges returns the edge count.
func (t *Topology) NumEdges() int { return len(t.EU) }

func (t *Topology) addNode(x, y float64) uint32 {
	t.X = append(t.X, x)
	t.Y = append(t.Y, y)
	return uint32(len(t.X) - 1)
}

func (t *Topology) addEdge(u, v uint32) {
	t.EU = append(t.EU, u)
	t.EV = append(t.EV, v)
	t.Len = append(t.Len, math.Hypot(t.X[u]-t.X[v], t.Y[u]-t.Y[v]))
}

// Grid returns an nx × ny lattice with coordinates jittered by ±jitter cell
// units. Lattices are connected and (for jitter < 0.5) planar-like.
func Grid(nx, ny int, jitter float64, rng *rand.Rand) *Topology {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("gen: grid dimensions must be positive, got %dx%d", nx, ny))
	}
	t := &Topology{}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			jx := (rng.Float64()*2 - 1) * jitter
			jy := (rng.Float64()*2 - 1) * jitter
			t.addNode(float64(x)+jx, float64(y)+jy)
		}
	}
	id := func(x, y int) uint32 { return uint32(y*nx + x) }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				t.addEdge(id(x, y), id(x+1, y))
			}
			if y+1 < ny {
				t.addEdge(id(x, y), id(x, y+1))
			}
		}
	}
	return t
}

// RoadConfig controls RoadNetwork.
type RoadConfig struct {
	// Nodes is the approximate final node count (default 175_000, matching
	// the paper's San Francisco network).
	Nodes int
	// EdgeNodeRatio is the target |E|/|V| (default 1.2746, SF's ratio).
	EdgeNodeRatio float64
	// PruneFrac is the fraction of grid edges removed before subdivision
	// (default 0.18); removal never disconnects the network.
	PruneFrac float64
	// Jitter perturbs grid coordinates (default 0.3 cell units).
	Jitter float64
	Seed   int64
}

func (c *RoadConfig) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 175_000
	}
	if c.EdgeNodeRatio == 0 {
		c.EdgeNodeRatio = 1.2746
	}
	if c.PruneFrac == 0 {
		c.PruneFrac = 0.18
	}
	if c.Jitter == 0 {
		c.Jitter = 0.3
	}
}

// RoadNetwork synthesises a road-like topology with the configured node
// count and edge/node ratio. See the package comment for the rationale.
func RoadNetwork(cfg RoadConfig) *Topology {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// The pipeline multiplies node count by (r1-1)/(t-1) during subdivision,
	// where r1 is the post-prune ratio and t the target; size the seed grid
	// accordingly.
	r0 := 2.0 // asymptotic grid ratio
	r1 := r0 * (1 - cfg.PruneFrac)
	growth := (r1 - 1) / (cfg.EdgeNodeRatio - 1)
	if growth < 1 {
		growth = 1
	}
	n0 := int(float64(cfg.Nodes) / growth)
	if n0 < 4 {
		n0 = 4
	}
	side := int(math.Sqrt(float64(n0)))
	if side < 2 {
		side = 2
	}
	t := Grid(side, (n0+side-1)/side, cfg.Jitter, rng)
	pruneConnected(t, cfg.PruneFrac, rng)
	subdivideToRatio(t, cfg.EdgeNodeRatio, rng)
	return t
}

// pruneConnected removes up to frac·|E| edges, never removing spanning-tree
// edges, so the network stays connected.
func pruneConnected(t *Topology, frac float64, rng *rand.Rand) {
	n := t.NumNodes()
	uf := newUnionFind(n)
	tree := make([]bool, t.NumEdges())
	order := rng.Perm(t.NumEdges())
	for _, e := range order {
		if uf.union(int(t.EU[e]), int(t.EV[e])) {
			tree[e] = true
		}
	}
	var removable []int
	for e, isTree := range tree {
		if !isTree {
			removable = append(removable, e)
		}
	}
	rng.Shuffle(len(removable), func(i, j int) { removable[i], removable[j] = removable[j], removable[i] })
	target := int(frac * float64(t.NumEdges()))
	if target > len(removable) {
		target = len(removable)
	}
	drop := make(map[int]bool, target)
	for _, e := range removable[:target] {
		drop[e] = true
	}
	keepEU, keepEV, keepLen := t.EU[:0], t.EV[:0], t.Len[:0]
	for e := range t.EU {
		if !drop[e] {
			keepEU = append(keepEU, t.EU[e])
			keepEV = append(keepEV, t.EV[e])
			keepLen = append(keepLen, t.Len[e])
		}
	}
	t.EU, t.EV, t.Len = keepEU, keepEV, keepLen
}

// subdivideToRatio inserts degree-2 chain nodes into random edges until
// |E|/|V| falls to the target (each insertion adds one node and one edge,
// driving the ratio towards 1).
func subdivideToRatio(t *Topology, target float64, rng *rand.Rand) {
	if target <= 1 {
		return
	}
	// k insertions: (E+k)/(N+k) = target  =>  k = (E - target·N)/(target - 1)
	k := int(math.Ceil((float64(t.NumEdges()) - target*float64(t.NumNodes())) / (target - 1)))
	for i := 0; i < k; i++ {
		e := rng.Intn(t.NumEdges())
		u, v := t.EU[e], t.EV[e]
		fr := 0.3 + rng.Float64()*0.4
		mx := t.X[u] + (t.X[v]-t.X[u])*fr
		my := t.Y[u] + (t.Y[v]-t.Y[u])*fr
		m := t.addNode(mx, my)
		// Replace edge e by (u,m) and append (m,v).
		t.EV[e] = m
		t.Len[e] = math.Hypot(t.X[u]-mx, t.Y[u]-my)
		t.addEdge(m, v)
	}
}

type unionFind struct {
	parent []int32
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

func (uf *unionFind) find(x int) int32 {
	root := int32(x)
	for uf.parent[root] != root {
		root = uf.parent[root]
	}
	for int32(x) != root {
		next := uf.parent[x]
		uf.parent[x] = root
		x = int(next)
	}
	return root
}

// union merges the sets of a and b, reporting whether they were distinct.
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	return true
}
