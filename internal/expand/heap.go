package expand

// itemKind names the two id spaces an expansion's heap holds.
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

// facilityTie is set in the tie of every facility item and of no node item.
const facilityTie = 1 << 31

// item is one heap entry: a network node or a facility with its tentative
// cost under the expansion's cost type, and the tie that orders it among
// entries of equal cost. A node's tie is its push sequence number within the
// expansion (below facilityTie), a facility's is facilityTie | id. So, at
// equal cost:
//
//   - nodes pop before facilities, so by the time any facility at cost x
//     pops, every node within cost x has been expanded — every facility with
//     cost ≤ x has been discovered — and equal-cost facilities pop in id
//     order, identical across the d expansions. LSA's and CEA's correctness
//     arguments (and our tie-robust extension) rely on this order;
//   - nodes pop first-in-first-out. Push order follows the adjacency rows'
//     arc order, which every source serves in the graph's order, so which
//     node settles first — and with it every answer and every work counter —
//     does not depend on how a source numbers its nodes (flat.Source numbers
//     them in locality order, the graph and the disk store by id).
type item struct {
	key float64
	tie uint32
	id  uint32
}

// kind reports which id space the item's id belongs to.
func (a item) kind() itemKind {
	if a.tie < facilityTie {
		return kindNode
	}
	return kindFacility
}

// less orders by (key, tie); see item for why.
func (a item) less(b item) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.tie < b.tie
}

// minHeap is a binary min-heap of items. The zero value is an empty heap.
type minHeap struct {
	a []item
}

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
