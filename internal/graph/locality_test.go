package graph

import (
	"math"
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
