// Package skyline implements conventional skyline computation over
// materialised cost vectors: block-nested-loops (BNL), per Börzsönyi et al.
// The paper's baseline MCN method materialises all facility cost vectors
// with d complete network expansions and then runs this operator; the
// maintainer of internal/dynamic runs it over its maintained vectors.
package skyline

import (
	"sort"

	"mcn/internal/vec"
)

// BNL returns the indices of the skyline tuples of items (all vectors must
// be complete and share one dimensionality) using the block-nested-loops
// strategy with an in-memory window.
func BNL(items []vec.Costs) []int {
	var window []int
	for i, c := range items {
		dominated := false
		for _, j := range window {
			if items[j].Dominates(c) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		keep := window[:0]
		for _, j := range window {
			if !c.Dominates(items[j]) {
				keep = append(keep, j)
			}
		}
		window = append(keep, i)
	}
	sort.Ints(window)
	return window
}
