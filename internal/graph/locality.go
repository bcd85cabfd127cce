package graph

import "math"

// hilbertBits is the resolution of the locality order: coordinates are
// scaled onto a 2^hilbertBits × 2^hilbertBits grid, so a curve index fits in
// 32 bits.
const hilbertBits = 16

// LocalityOrder returns g's nodes in ascending Hilbert-curve index of their
// coordinates, scaled onto a grid over the graph's bounding box, ties in id
// order. A Dijkstra wavefront grows through neighbouring space, so records
// laid out in this order — the disk store's data file, the flat CSR rows —
// put what one expansion reads on few pages and cache lines. A graph without
// coordinates (every node on one cell) keeps id order. The packed
// index<<32 | id keys are sorted by an LSD radix sort on the index alone
// (see sortByHigh32); it is stable, so the ids, packed in ascending order,
// break the ties.
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
	keys = sortByHigh32(keys, make([]uint64, n))
	order := make([]NodeID, n)
	for r, k := range keys {
		order[r] = NodeID(uint32(k))
	}
	return order
}

// sortByHigh32 sorts keys stably by their high 32 bits: an LSD radix sort,
// four counting passes of 8 bits between keys and tmp (len(keys) each). A
// pass whose digit is the same for every key is skipped. It returns
// whichever of the two slices holds the result.
func sortByHigh32(keys, tmp []uint64) []uint64 {
	var count [4][256]int
	for _, k := range keys {
		count[0][k>>32&0xff]++
		count[1][k>>40&0xff]++
		count[2][k>>48&0xff]++
		count[3][k>>56]++
	}
	for pass := range count {
		shift := 32 + 8*pass
		c := &count[pass]
		if len(keys) == 0 || c[keys[0]>>shift&0xff] == len(keys) {
			continue
		}
		at := 0
		for digit, k := range c {
			c[digit] = at
			at += k
		}
		for _, k := range keys {
			digit := k >> shift & 0xff
			tmp[c[digit]] = k
			c[digit]++
		}
		keys, tmp = tmp, keys
	}
	return keys
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
// 2^hilbertBits × 2^hilbertBits grid: the classic quadrant walk, four
// levels per step of hilbertSteps.
func hilbert(x, y uint32) uint32 {
	var d uint32
	var s uint16
	for k := hilbertBits - 4; k >= 0; k -= 4 {
		e := hilbertSteps[s<<8|uint16(x>>k&15)<<4|uint16(y>>k&15)]
		d = d<<8 | uint32(e&0xff)
		s = e >> 8
	}
	return d
}

// hilbertSteps[s<<8 | xn<<4 | yn] is four levels of the quadrant walk, from
// orientation s with xn and yn the next four bits of x and y: the levels'
// index digits in its low byte, the orientation after them in bits 8–9.
// An orientation is what the walk has done to the coordinates so far, bit 0
// a swap of x and y and bit 1 a reflection of both; the two commute. At
// each level the quadrant (rx, ry), read through the orientation, gives the
// digit (3·rx) ⊕ ry, and when ry is 0 the walk swaps, after reflecting if
// rx is 1.
var hilbertSteps = func() (t [4 << 8]uint16) {
	for s := range 4 {
		for xn := range 16 {
			for yn := range 16 {
				o, digits := s, 0
				for k := 3; k >= 0; k-- {
					rx, ry := xn>>k&1, yn>>k&1
					if o&1 != 0 {
						rx, ry = ry, rx
					}
					if o&2 != 0 {
						rx, ry = rx^1, ry^1
					}
					digits |= (3*rx ^ ry) << (2 * k)
					if ry == 0 {
						o ^= 1 | rx<<1
					}
				}
				t[s<<8|xn<<4|yn] = uint16(digits | o<<8)
			}
		}
	}
	return t
}()
