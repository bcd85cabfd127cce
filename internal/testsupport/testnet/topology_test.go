package testnet

import (
	"math/rand"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// connected reports whether t is one connected component, by a search from
// node 0.
func connected(t *gen.Topology) bool {
	adj := make([][]uint32, t.NumNodes())
	for e := range t.EU {
		u, v := t.EU[e], t.EV[e]
		adj[u], adj[v] = append(adj[u], v), append(adj[v], u)
	}
	seen := make([]bool, t.NumNodes())
	stack := []uint32{0}
	seen[0] = true
	reached := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				reached++
				stack = append(stack, v)
			}
		}
	}
	return reached == t.NumNodes()
}

func TestPath(t *testing.T) {
	p := Path(5)
	if p.NumNodes() != 5 || p.NumEdges() != 4 {
		t.Errorf("path: (%d, %d), want (5, 4)", p.NumNodes(), p.NumEdges())
	}
	if !connected(p) {
		t.Error("path must be connected")
	}
	for e, l := range p.Len {
		if l != 1 {
			t.Errorf("edge %d has length %v, want 1", e, l)
		}
	}
}

func TestRandomConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		g := RandomConnected(n, rng.Intn(20), rng)
		if !connected(g) {
			t.Fatalf("trial %d: graph on %d nodes disconnected", trial, n)
		}
		if g.NumEdges() < n-1 {
			t.Fatalf("trial %d: %d edges < n-1", trial, g.NumEdges())
		}
	}
}

func TestAddNodesBulk(t *testing.T) {
	b := graph.NewBuilder(1, false)
	if first := AddNodes(b, 10); first != 0 {
		t.Errorf("first = %d, want 0", first)
	}
	if second := AddNodes(b, 5); second != 10 {
		t.Errorf("second = %d, want 10", second)
	}
	b.AddEdge(0, 14, vec.Of(1))
	if g := MustBuild(b); g.NumNodes() != 15 {
		t.Errorf("NumNodes = %d, want 15", g.NumNodes())
	}
}
