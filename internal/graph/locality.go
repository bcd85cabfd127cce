package graph

import (
	"math"
	"slices"
)

// hilbertBits is the resolution of the locality order: coordinates are
// scaled onto a 2^hilbertBits × 2^hilbertBits grid, so a curve index fits in
// 32 bits.
const hilbertBits = 16

// LocalityOrder returns g's nodes in ascending Hilbert-curve index of their
// coordinates, scaled onto a grid over the graph's bounding box, ties in id
// order. A Dijkstra wavefront grows through neighbouring space, so records
// laid out in this order — the disk store's data file, the flat CSR rows —
// put what one expansion reads on few pages and cache lines. A graph without
// coordinates (every node on one cell) keeps id order. One sort of packed
// index<<32 | id keys; no comparison closure.
func LocalityOrder(g *Graph) []NodeID {
	n := g.NumNodes()
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range g.nodes {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	keys := make([]uint64, n)
	for v, p := range g.nodes {
		d := hilbert(gridCell(p.X, minX, maxX), gridCell(p.Y, minY, maxY))
		keys[v] = uint64(d)<<32 | uint64(v)
	}
	slices.Sort(keys)
	order := make([]NodeID, n)
	for r, k := range keys {
		order[r] = NodeID(uint32(k))
	}
	return order
}

// gridCell maps x in [lo, hi] onto a grid cell 0..2^hilbertBits-1. A
// degenerate box or a non-finite coordinate maps to cell 0.
func gridCell(x, lo, hi float64) uint32 {
	const top = 1<<hilbertBits - 1
	f := float64((x-lo)/(hi-lo)) * top
	switch {
	case !(f > 0): // NaN, or the box's low edge
		return 0
	case f >= top:
		return top
	}
	return uint32(f)
}

// hilbert returns the index of cell (x, y) along the Hilbert curve over the
// 2^hilbertBits × 2^hilbertBits grid: the classic quadrant walk, written
// with masks instead of branches because the quadrant bits of a road
// network's nodes are as good as random to a branch predictor.
func hilbert(x, y uint32) uint32 {
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
