package expand

import (
	"fmt"
	"math"
	"math/bits"
)

// itemKind names the two id spaces an expansion's queue holds.
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

// item is one queue entry: a network node or a facility with its tentative
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

// minHeap is a binary min-heap of items, ordered by (key, tie) whatever the
// keys' signs: bucket 0 of a monotoneQueue. The zero value is an empty heap.
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

// monotoneQueue is an expansion's priority queue: a radix heap (Ahuja,
// Mehlhorn, Orlin & Tarjan, J. ACM 1990) over the keys' IEEE-754 bits. It
// pops items in exactly minHeap's (key, tie) order, provided no key is
// pushed below its floor: the key it last popped or peeked. Dijkstra keeps
// that contract by construction — a popped node's neighbours and facilities
// cost at least the node — and push rejects a key below the floor, a
// negative key and NaN alike, instead of popping it out of order.
//
// A key is stored under math.Float64bits(key + 0); the + 0 turns −0 into
// +0, and for non-negative floats bit order is numeric order. Bucket b ≥ 1
// holds the items whose key bits first differ from the floor's at bit b − 1,
// so every key in bucket b is below every key in bucket b + 1; bucket 0 holds
// the keys equal to the floor. Bucket 0 is a minHeap, so equal keys still pop
// nodes first in, first out, then facilities by id. When bucket 0 runs dry,
// peek and pop redistribute the lowest non-empty bucket around its minimum,
// which becomes the new floor: its items fall into lower buckets, at most
// 63 moves per item in all. The zero value is an empty queue with floor 0.
type monotoneQueue struct {
	floor uint64 // key bits of the last pop or peek
	full  uint64 // bit b set when bucket b ≥ 1 is non-empty
	zero  minHeap
	rest  [64][]item // rest[b] is bucket b ≥ 1; rest[0] is unused
}

// infBits is the key bits of +Inf, the largest key push accepts: every
// negative key and every NaN has larger bits.
const infBits = 0x7ff0000000000000

func keyBits(key float64) uint64 { return math.Float64bits(key + 0) }

// push adds it, or fails when its key is NaN or below the floor.
func (q *monotoneQueue) push(it item) error {
	k := keyBits(it.key)
	if k < q.floor || k > infBits {
		return fmt.Errorf("expand: key %v pushed below the queue's floor %v", it.key, math.Float64frombits(q.floor))
	}
	b := bits.Len64(k ^ q.floor)
	if b == 0 {
		q.zero.push(it)
		return nil
	}
	q.rest[b] = append(q.rest[b], it)
	q.full |= 1 << b
	return nil
}

// peek returns the minimum item without removing it; ok is false when
// empty. It may raise the floor to the minimum's key.
func (q *monotoneQueue) peek() (item, bool) {
	q.refill()
	return q.zero.peek()
}

// pop removes and returns the minimum item; ok is false when empty.
func (q *monotoneQueue) pop() (item, bool) {
	q.refill()
	return q.zero.pop()
}

// refill makes bucket 0 non-empty unless the whole queue is empty: the
// lowest non-empty bucket's minimum becomes the floor, and each of that
// bucket's items moves to the bucket it now belongs in, a lower one.
func (q *monotoneQueue) refill() {
	if len(q.zero.a) > 0 || q.full == 0 {
		return
	}
	b := bits.TrailingZeros64(q.full)
	src := q.rest[b]
	floor := keyBits(src[0].key)
	for _, it := range src[1:] {
		floor = min(floor, keyBits(it.key))
	}
	q.floor = floor
	for _, it := range src {
		c := bits.Len64(keyBits(it.key) ^ floor)
		if c == 0 {
			q.zero.push(it)
			continue
		}
		q.rest[c] = append(q.rest[c], it)
		q.full |= 1 << c
	}
	q.rest[b] = src[:0]
	q.full &^= 1 << b
}

// reset empties the queue and lowers its floor to 0, keeping every bucket's
// backing array for reuse.
func (q *monotoneQueue) reset() {
	q.zero.a = q.zero.a[:0]
	for f := q.full; f != 0; f &= f - 1 {
		b := bits.TrailingZeros64(f)
		q.rest[b] = q.rest[b][:0]
	}
	q.full, q.floor = 0, 0
}
