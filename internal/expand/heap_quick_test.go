package expand

import (
	"sort"
	"testing"
	"testing/quick"
)

// quick.Check: pushing arbitrary items and draining the heap yields exactly
// the input multiset in the canonical (key, tie) order: nodes tied by push
// sequence, facilities by id.
func TestHeapQuickSortedDrain(t *testing.T) {
	type rawItem struct {
		Key  float64
		Kind bool
		ID   uint32
	}
	f := func(raw []rawItem) bool {
		var h minHeap
		items := make([]item, len(raw))
		for i, r := range raw {
			k := r.Key
			if k != k { // NaN keys never occur in expansions; normalise
				k = 0
			}
			items[i] = item{key: k, tie: uint32(i), id: r.ID}
			if r.Kind {
				id := r.ID &^ facilityTie
				items[i] = item{key: k, tie: facilityTie | id, id: id}
			}
			h.push(items[i])
		}
		sorted := append([]item(nil), items...)
		sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].less(sorted[b]) })
		for _, want := range sorted {
			got, ok := h.pop()
			if !ok || got != want {
				return false
			}
		}
		_, ok := h.pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// quick.Check: peek always agrees with the next pop.
func TestHeapQuickPeekConsistent(t *testing.T) {
	f := func(keys []float64) bool {
		var h minHeap
		for i, k := range keys {
			if k != k {
				k = 0
			}
			h.push(item{key: k, tie: uint32(i), id: uint32(i)})
		}
		for h.len() > 0 {
			p, _ := h.peek()
			g, _ := h.pop()
			if p != g {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
