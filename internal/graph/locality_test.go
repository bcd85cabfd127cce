package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mcn/internal/vec"
)

// The curve visits the 16×16 corner of the grid in its first 256 steps, each
// step to a neighbouring cell — the locality LocalityOrder relies on.
func TestHilbertCurve(t *testing.T) {
	const side = 16
	var cell [side * side][2]int
	seen := make([]bool, side*side)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			d := hilbert(uint32(x), uint32(y))
			if d >= side*side || seen[d] {
				t.Fatalf("hilbert(%d, %d) = %d: not a fresh index below %d", x, y, d, side*side)
			}
			seen[d] = true
			cell[d] = [2]int{x, y}
		}
	}
	for d := 1; d < side*side; d++ {
		dx, dy := cell[d][0]-cell[d-1][0], cell[d][1]-cell[d-1][1]
		if dx*dx+dy*dy != 1 {
			t.Fatalf("steps %d→%d jump from %v to %v", d-1, d, cell[d-1], cell[d])
		}
	}
	if got := hilbert(1<<hilbertBits-1, 0); got != 1<<(2*hilbertBits)-1 {
		t.Errorf("the curve ends at index %d, want %d", got, uint32(1<<(2*hilbertBits)-1))
	}
}

// hilbertByLevel is the quadrant walk one level at a time, with masks
// instead of branches: the definition hilbert's four-level table steps must
// reproduce.
func hilbertByLevel(x, y uint32) uint32 {
	const all = 1<<hilbertBits - 1
	var d uint32
	for k := hilbertBits - 1; k >= 0; k-- {
		rx, ry := x>>k&1, y>>k&1
		d |= ((3 * rx) ^ ry) << (2 * k)
		// Rotate the quadrant into standard orientation: when ry is 0,
		// reflect if rx is 1, then swap x and y.
		swap := ry - 1 // all ones when ry == 0
		flip := swap & -rx & all
		x, y = x^flip, y^flip
		t := (x ^ y) & swap
		x, y = x^t, y^t
	}
	return d
}

// The table-stepped walk gives the level-by-level walk's index on every
// cell of the 256×256 corner, along the grid's edges and at a million
// random cells.
func TestHilbertMatchesLevelWalk(t *testing.T) {
	const top = 1<<hilbertBits - 1
	check := func(x, y uint32) {
		if got, want := hilbert(x, y), hilbertByLevel(x, y); got != want {
			t.Fatalf("hilbert(%d, %d) = %d, the level walk gives %d", x, y, got, want)
		}
	}
	for x := uint32(0); x < 256; x++ {
		for y := uint32(0); y < 256; y++ {
			check(x, y)
		}
	}
	for v := uint32(0); v <= top; v++ {
		check(v, 0)
		check(0, v)
		check(v, top)
		check(top, v)
	}
	rng := rand.New(rand.NewSource(1))
	for range 1_000_000 {
		check(uint32(rng.Intn(top+1)), uint32(rng.Intn(top+1)))
	}
}

func TestLocalityOrder(t *testing.T) {
	build := func(pts ...[2]float64) *Graph {
		b := NewBuilder(1, false)
		for _, p := range pts {
			b.AddNode(p[0], p[1])
		}
		b.AddEdge(0, 1, vec.Of(1))
		return b.MustBuild()
	}
	ids := func(order []NodeID) []int {
		out := make([]int, len(order))
		for i, v := range order {
			out[i] = int(v)
		}
		return out
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		g    *Graph
		want []int
	}{
		{"no coordinates", build([2]float64{}, [2]float64{}, [2]float64{}), []int{0, 1, 2}},
		// Cells along the curve: (0,0) (0,1) (1,1) (1,0) in the first
		// quarter's orientation; ties keep id order.
		{"corners", build([2]float64{1, 0}, [2]float64{1, 1}, [2]float64{0, 1}, [2]float64{0, 0}, [2]float64{0, 0}), []int{3, 4, 2, 1, 0}},
		{"non-finite", build([2]float64{nan, 0}, [2]float64{inf, inf}, [2]float64{0, nan}), []int{0, 1, 2}},
	} {
		if got := ids(LocalityOrder(c.g)); !slices.Equal(got, c.want) {
			t.Errorf("%s: order %v, want %v", c.name, got, c.want)
		}
	}
}

// referenceOrder is LocalityOrder by a comparison sort of the packed
// index<<32 | id keys, the definition the radix sort must reproduce.
func referenceOrder(g *Graph) []NodeID {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range g.nodes {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	keys := make([]uint64, g.NumNodes())
	for v, p := range g.nodes {
		keys[v] = uint64(hilbert(gridCell(p.X, minX, maxX), gridCell(p.Y, minY, maxY)))<<32 | uint64(v)
	}
	slices.Sort(keys)
	order := make([]NodeID, len(keys))
	for r, k := range keys {
		order[r] = NodeID(uint32(k))
	}
	return order
}

// At scale the radix-sorted order equals the comparison sort: 50 000 random
// points, many of them sharing a coordinate pair (ties the id must break),
// spread over every digit of the curve index; the same nodes on a
// degenerate box (one column, then one point); and 0 and 1 nodes.
func TestLocalityOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points := func(n int, at func(v int) (x, y float64)) *Graph {
		b := NewBuilder(1, false)
		for v := 0; v < n; v++ {
			b.AddNode(at(v))
		}
		return b.MustBuild()
	}
	const n = 50_000
	xs, ys := make([]float64, n), make([]float64, n)
	for v := range xs {
		if v > 0 && rng.Intn(4) == 0 {
			w := rng.Intn(v) // a duplicate of an earlier node
			xs[v], ys[v] = xs[w], ys[w]
			continue
		}
		xs[v], ys[v] = rng.Float64()*1e4, rng.Float64()*1e4
	}
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"random with duplicates", points(n, func(v int) (float64, float64) { return xs[v], ys[v] })},
		{"one column", points(n, func(v int) (float64, float64) { return 5, ys[v] })},
		{"one point", points(n, func(int) (float64, float64) { return 5, 5 })},
		{"one node", points(1, func(int) (float64, float64) { return 3, 4 })},
		{"no nodes", points(0, nil)},
	} {
		got, want := LocalityOrder(c.g), referenceOrder(c.g)
		if i := slices.Compare(got, want); i != 0 || len(got) != c.g.NumNodes() {
			t.Errorf("%s: radix order differs from the comparison sort", c.name)
		}
	}
}
