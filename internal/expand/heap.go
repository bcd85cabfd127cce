package expand

// itemKind distinguishes heap entries. Nodes order before facilities at
// equal key so that, by the time any facility at cost x pops, every node
// within cost x has been expanded — which means every facility with cost
// ≤ x has been discovered and equal-cost facilities pop in a deterministic
// id order that is identical across the d expansions. LSA's and CEA's
// correctness arguments (and our tie-robust extension) rely on this
// deterministic order.
type itemKind uint8

const (
	kindNode itemKind = iota
	kindFacility
)

func (k itemKind) String() string {
	if k == kindNode {
		return "node"
	}
	return "facility"
}

// item is one heap entry: a network node or a facility with its tentative
// cost under the expansion's cost type.
type item struct {
	key  float64
	kind itemKind
	id   uint32
}

// less orders by (key, kind, id); see itemKind for why.
func (a item) less(b item) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.id < b.id
}

// minHeap is a binary min-heap of items. The zero value is an empty heap.
type minHeap struct {
	a []item
}

func (h *minHeap) len() int { return len(h.a) }

func (h *minHeap) push(it item) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.a[i].less(h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

// peek returns the minimum item without removing it; ok is false when empty.
func (h *minHeap) peek() (item, bool) {
	if len(h.a) == 0 {
		return item{}, false
	}
	return h.a[0], true
}

// pop removes and returns the minimum item; ok is false when empty.
func (h *minHeap) pop() (item, bool) {
	if len(h.a) == 0 {
		return item{}, false
	}
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	h.siftDown(0)
	return top, true
}

func (h *minHeap) siftDown(i int) {
	n := len(h.a)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.a[l].less(h.a[small]) {
			small = l
		}
		if r < n && h.a[r].less(h.a[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
}
