package storage

import (
	"context"
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
	// empty marks a tree built from zero entries; lookups always miss.
	empty bool
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

// Lookup returns the value stored under key, with ok=false when absent.
func (t *BTree) Lookup(key uint64) (value uint64, ok bool, err error) {
	return t.LookupCtx(nil, key)
}

// LookupCtx is Lookup with the page reads bound to ctx (see
// BufferPool.GetCtx); a nil ctx behaves like Lookup. Each node is pinned
// only while it is searched.
func (t *BTree) LookupCtx(ctx context.Context, key uint64) (value uint64, ok bool, err error) {
	page := t.root
	for {
		var fr *Frame
		if fr, err = t.pool.GetCtx(ctx, page); err != nil {
			return 0, false, err
		}
		data := fr.Data()
		kind := data[0]
		n := int(binary.LittleEndian.Uint16(data[1:3]))
		switch {
		case kind == leafKind:
			value, ok = searchLeaf(data, n, key)
		case kind == innerKind && n > 0:
			page = searchInner(data, n, key)
		default:
			err = fmt.Errorf("storage: page %d is not a searchable btree node (kind %d, %d entries)", page, kind, n)
		}
		fr.Release()
		if kind == leafKind || err != nil {
			return value, ok, err
		}
	}
}

// searchLeaf binary-searches the n entries of a leaf node for key.
func searchLeaf(data []byte, n int, key uint64) (value uint64, ok bool) {
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		k := binary.LittleEndian.Uint64(data[btreeHeader+mid*leafEntry:])
		switch {
		case k == key:
			return binary.LittleEndian.Uint64(data[btreeHeader+mid*leafEntry+8:]), true
		case k < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false
}

// searchInner returns the child of an inner node with n > 0 entries that
// covers key: the largest i with firstKey[i] <= key. Keys below firstKey[0]
// cannot exist but descend leftmost for a definitive miss.
func searchInner(data []byte, n int, key uint64) PageID {
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		k := binary.LittleEndian.Uint64(data[btreeHeader+mid*innerEntry:])
		if k <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	idx := lo - 1
	if idx < 0 {
		idx = 0
	}
	return PageID(binary.LittleEndian.Uint32(data[btreeHeader+idx*innerEntry+8:]))
}
