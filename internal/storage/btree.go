package storage

import (
	"encoding/binary"
	"fmt"
)

// The adjacency, facility and edge trees of the paper's storage scheme are
// static indexes built once when the database is written. We implement them
// as bulk-loaded B+-trees over uint64 keys and values, stored on the same
// paged device as the data files so that index traversals are charged to the
// same buffer pool the paper measures.
//
// Page layout:
//
//	byte 0      node kind (leafKind or innerKind)
//	bytes 1..2  entry count (uint16)
//	entries     leaf:  key uint64, value uint64        (16 bytes)
//	            inner: firstKey uint64, child uint32   (12 bytes)
//
// Inner entries store the smallest key reachable through the child, enabling
// upper-bound binary search during descent.
//
// Every tree of a database is keyed by dense ids (record numbers, facility
// ids, edge ids), so a leaf's keys are consecutive and an inner node's first
// keys step by a fixed stride. A lookup therefore computes where the key
// would sit under that assumption — slot key − firstKey in a leaf, child
// (key − k₀) / (k₁ − k₀) in an inner node — and accepts the guess only when
// the entry there matches (leaf) or brackets the key (inner); otherwise it
// binary-searches. The guess is exact for a database's trees and correct for
// any key set, and it reads no page the binary search would not.
const (
	leafKind  = 1
	innerKind = 2

	btreeHeader = 3
	leafEntry   = 16
	innerEntry  = 12

	leafFanout  = (PageSize - btreeHeader) / leafEntry
	innerFanout = (PageSize - btreeHeader) / innerEntry
)

// BTree is a read-only handle to a bulk-loaded B+-tree.
type BTree struct {
	pool *BufferPool
	root PageID
	// height bounds a descent: the levels a tree can have whose leaves all
	// fit on the device's pages.
	height int
}

// BuildBTree bulk-loads the given key-sorted entries onto dev and returns
// the root page id. Keys must be strictly increasing.
func BuildBTree(dev Device, keys []uint64, values []uint64) (PageID, error) {
	if len(keys) != len(values) {
		return 0, fmt.Errorf("storage: btree bulk-load with %d keys, %d values", len(keys), len(values))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return 0, fmt.Errorf("storage: btree keys not strictly increasing at %d", i)
		}
	}
	scratch := make([]byte, PageSize)
	if len(keys) == 0 {
		// Allocate a single empty leaf so the tree has a valid root.
		return writeBTreeNode(dev, scratch, leafKind, nil, nil, nil)
	}

	// Level 0: leaves.
	type nodeRef struct {
		firstKey uint64
		page     PageID
	}
	var level []nodeRef
	for i := 0; i < len(keys); i += leafFanout {
		j := i + leafFanout
		if j > len(keys) {
			j = len(keys)
		}
		id, err := writeBTreeNode(dev, scratch, leafKind, keys[i:j], values[i:j], nil)
		if err != nil {
			return 0, err
		}
		level = append(level, nodeRef{firstKey: keys[i], page: id})
	}
	// Upper levels.
	for len(level) > 1 {
		var next []nodeRef
		for i := 0; i < len(level); i += innerFanout {
			j := i + innerFanout
			if j > len(level) {
				j = len(level)
			}
			ks := make([]uint64, j-i)
			ch := make([]PageID, j-i)
			for k, nr := range level[i:j] {
				ks[k] = nr.firstKey
				ch[k] = nr.page
			}
			id, err := writeBTreeNode(dev, scratch, innerKind, ks, nil, ch)
			if err != nil {
				return 0, err
			}
			next = append(next, nodeRef{firstKey: ks[0], page: id})
		}
		level = next
	}
	return level[0].page, nil
}

// writeBTreeNode allocates a page and encodes one node in it (see newPage
// for scratch).
func writeBTreeNode(dev Device, scratch []byte, kind byte, keys, values []uint64, children []PageID) (PageID, error) {
	id, buf, err := newPage(dev, scratch)
	if err != nil {
		return 0, err
	}
	buf[0] = kind
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(keys)))
	off := btreeHeader
	for i, k := range keys {
		binary.LittleEndian.PutUint64(buf[off:], k)
		off += 8
		if kind == leafKind {
			binary.LittleEndian.PutUint64(buf[off:], values[i])
			off += 8
		} else {
			binary.LittleEndian.PutUint32(buf[off:], uint32(children[i]))
			off += 4
		}
	}
	return id, putPage(dev, id, buf)
}

// OpenBTree returns a lookup handle for the tree rooted at root.
func OpenBTree(pool *BufferPool, root PageID) *BTree {
	// BuildBTree's levels shrink by innerFanout from at most one leaf per
	// page up to the root.
	height := 1
	for span := 1; span < pool.dev.NumPages(); span *= innerFanout {
		height++
	}
	return &BTree{pool: pool, root: root, height: height}
}

// Lookup returns the value stored under key, with ok=false when absent,
// reading one node per level. A node that is not one — of another kind,
// with more entries than its kind holds, or deeper than the tree can reach
// — fails the lookup with a storage fault, counted as a permanent failure:
// a page that passes its checksum may still have been forged, and must
// neither index past its end nor lead the descent round a cycle.
func (t *BTree) Lookup(key uint64) (value uint64, ok bool, err error) {
	page := t.root
	for depth := 1; ; depth++ {
		if depth > t.height {
			return 0, false, t.corrupt("btree descent passes page %d at depth %d, deeper than a tree of %d levels", page, depth, t.height)
		}
		data, err := t.pool.Get(page)
		if err != nil {
			return 0, false, err
		}
		kind := data[0]
		n := int(binary.LittleEndian.Uint16(data[1:3]))
		switch {
		case kind == leafKind && n <= leafFanout:
			value, ok = searchLeaf(data, n, key)
			return value, ok, nil
		case kind == innerKind && n > 0 && n <= innerFanout:
			page = searchInner(data, n, key)
		default:
			return 0, false, t.corrupt("page %d is not a searchable btree node (kind %d, %d entries)", page, kind, n)
		}
	}
}

// corrupt counts a tree page that is not what it must be as a permanent
// failure and returns the storage fault that reports it.
func (t *BTree) corrupt(format string, args ...any) error {
	t.pool.failPermanent.Add(1)
	return faultf(format, args...)
}

// searchLeaf finds key among the n entries of a leaf node: at slot
// key − firstKey when the leaf's keys run consecutively there, else by
// binary search.
func searchLeaf(data []byte, n int, key uint64) (value uint64, ok bool) {
	le := binary.LittleEndian
	// A key below firstKey wraps to a slot past n and skips the guess.
	if i := key - le.Uint64(data[btreeHeader:]); i < uint64(n) {
		at := btreeHeader + int(i)*leafEntry
		if le.Uint64(data[at:]) == key {
			return le.Uint64(data[at+8:]), true
		}
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		k := le.Uint64(data[btreeHeader+mid*leafEntry:])
		switch {
		case k == key:
			return le.Uint64(data[btreeHeader+mid*leafEntry+8:]), true
		case k < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false
}

// searchInner returns the child of an inner node with n > 0 entries that
// covers key: the largest i with firstKey[i] <= key. It tries
// i = (key − k₀) / (k₁ − k₀) first, the answer when the first keys step by
// a fixed stride, and binary-searches when that child does not bracket key.
// Keys below firstKey[0] cannot exist but descend leftmost for a definitive
// miss.
func searchInner(data []byte, n int, key uint64) PageID {
	if n > 1 {
		if k0, k1 := innerKey(data, 0), innerKey(data, 1); k0 <= key && k0 < k1 {
			if i := (key - k0) / (k1 - k0); i < uint64(n) {
				j := int(i)
				if innerKey(data, j) <= key && (j+1 == n || key < innerKey(data, j+1)) {
					return innerChild(data, j)
				}
			}
		}
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if innerKey(data, mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return innerChild(data, max(lo-1, 0))
}

// innerKey returns the first key of an inner node's entry i.
func innerKey(data []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(data[btreeHeader+i*innerEntry:])
}

// innerChild returns the child page of an inner node's entry i.
func innerChild(data []byte, i int) PageID {
	return PageID(binary.LittleEndian.Uint32(data[btreeHeader+i*innerEntry+8:]))
}
