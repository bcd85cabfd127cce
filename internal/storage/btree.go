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
	if len(keys) == 0 {
		// Allocate a single empty leaf so the tree has a valid root.
		return writeBTreeNode(dev, leafKind, nil, nil, nil)
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
		id, err := writeBTreeNode(dev, leafKind, keys[i:j], values[i:j], nil)
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
			id, err := writeBTreeNode(dev, innerKind, ks, nil, ch)
			if err != nil {
				return 0, err
			}
			next = append(next, nodeRef{firstKey: ks[0], page: id})
		}
		level = next
	}
	return level[0].page, nil
}

func writeBTreeNode(dev Device, kind byte, keys, values []uint64, children []PageID) (PageID, error) {
	id, err := dev.Alloc()
	if err != nil {
		return 0, err
	}
	buf := make([]byte, PageSize)
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
	return id, dev.WritePage(id, buf)
}

// OpenBTree returns a lookup handle for the tree rooted at root.
func OpenBTree(pool *BufferPool, root PageID) *BTree {
	return &BTree{pool: pool, root: root}
}

// Lookup returns the value stored under key, with ok=false when absent,
// reading one node per level.
func (t *BTree) Lookup(key uint64) (value uint64, ok bool, err error) {
	page := t.root
	for {
		data, err := t.pool.Get(page)
		if err != nil {
			return 0, false, err
		}
		kind := data[0]
		n := int(binary.LittleEndian.Uint16(data[1:3]))
		switch {
		case kind == leafKind:
			value, ok = searchLeaf(data, n, key)
			return value, ok, nil
		case kind == innerKind && n > 0:
			page = searchInner(data, n, key)
		default:
			return 0, false, faultf("page %d is not a searchable btree node (kind %d, %d entries)", page, kind, n)
		}
	}
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
