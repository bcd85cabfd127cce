package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func buildTree(t *testing.T, keys, vals []uint64) (*BTree, *BufferPool) {
	t.Helper()
	dev := NewMemDevice()
	root, err := BuildBTree(dev, keys, vals)
	if err != nil {
		t.Fatalf("BuildBTree: %v", err)
	}
	pool := NewBufferPool(dev, 64)
	return OpenBTree(pool, root), pool
}

func TestBTreeEmpty(t *testing.T) {
	tree, _ := buildTree(t, nil, nil)
	if _, ok, err := tree.Lookup(42); err != nil || ok {
		t.Errorf("empty tree lookup = ok=%v, err=%v; want miss", ok, err)
	}
}

func TestBTreeSingleLeaf(t *testing.T) {
	keys := []uint64{2, 5, 9}
	vals := []uint64{20, 50, 90}
	tree, _ := buildTree(t, keys, vals)
	for i, k := range keys {
		v, ok, err := tree.Lookup(k)
		if err != nil || !ok || v != vals[i] {
			t.Errorf("Lookup(%d) = %d, %v, %v; want %d", k, v, ok, err, vals[i])
		}
	}
	for _, k := range []uint64{0, 3, 10} {
		if _, ok, _ := tree.Lookup(k); ok {
			t.Errorf("Lookup(%d) hit; want miss", k)
		}
	}
}

func TestBTreeMultiLevel(t *testing.T) {
	// Enough keys for three levels: > leafFanout * innerFanout would be
	// huge; two levels need > leafFanout (255). Use sparse keys to exercise
	// inner-node routing on misses too.
	n := leafFanout*innerFanout/40 + 3*leafFanout // comfortably multi-level
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i * 3)
		vals[i] = uint64(i * 7)
	}
	tree, pool := buildTree(t, keys, vals)
	for _, i := range []int{0, 1, n / 2, n - 2, n - 1} {
		v, ok, err := tree.Lookup(keys[i])
		if err != nil || !ok || v != vals[i] {
			t.Fatalf("Lookup(%d) = %d, %v, %v; want %d", keys[i], v, ok, err, vals[i])
		}
	}
	// Misses between, below and above all keys.
	for _, k := range []uint64{1, 4, keys[n-1] + 1, keys[n-1] + 1000} {
		if _, ok, _ := tree.Lookup(k); ok {
			t.Errorf("Lookup(%d) hit; want miss", k)
		}
	}
	if pool.Stats().Logical == 0 {
		t.Error("lookups did not touch the buffer pool")
	}
}

func TestBTreeRejectsUnsortedKeys(t *testing.T) {
	dev := NewMemDevice()
	if _, err := BuildBTree(dev, []uint64{3, 1}, []uint64{0, 0}); err == nil {
		t.Error("unsorted keys accepted")
	}
	if _, err := BuildBTree(dev, []uint64{3, 3}, []uint64{0, 0}); err == nil {
		t.Error("duplicate keys accepted")
	}
	if _, err := BuildBTree(dev, []uint64{1}, []uint64{0, 0}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

// Property test: tree lookups agree with a map oracle across random key
// sets, including lookups of absent keys.
func TestBTreeMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(3000)
		oracle := make(map[uint64]uint64, n)
		for len(oracle) < n {
			oracle[uint64(rng.Intn(10_000))] = rng.Uint64()
		}
		keys := make([]uint64, 0, n)
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		vals := make([]uint64, n)
		for i, k := range keys {
			vals[i] = oracle[k]
		}
		tree, _ := buildTree(t, keys, vals)
		for probe := uint64(0); probe < 10_000; probe += uint64(1 + rng.Intn(37)) {
			want, wantOK := oracle[probe]
			got, ok, err := tree.Lookup(probe)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("trial %d: Lookup(%d) = (%d, %v), want (%d, %v)", trial, probe, got, ok, want, wantOK)
			}
		}
	}
}

// denseKeys returns n strictly increasing keys from base, consecutive except
// that skip extra ids are left out after every every-th key (every 0: none).
func denseKeys(base uint64, n, every, skip int) []uint64 {
	keys := make([]uint64, n)
	k := base
	for i := range keys {
		keys[i] = k
		k++
		if every > 0 && (i+1)%every == 0 {
			k += uint64(skip)
		}
	}
	return keys
}

// Dense key sets — the keys of every tree a database holds — at heights 1, 2
// and 3: from 0, from a nonzero base, with gaps, and with a one-entry last
// leaf. Every key, every gap, and keys below the first and above the last
// are looked up against a map, and each lookup reads exactly one node per
// level.
func TestBTreeDenseKeys(t *testing.T) {
	const two = leafFanout * innerFanout // most keys a two-level tree holds
	for _, c := range []struct {
		height int
		base   uint64
		n      int
		every  int // a gap after every every-th key (0: none)
		skip   int
	}{
		{1, 0, leafFanout, 0, 0},
		{1, 1000, 100, 0, 0},
		{1, 7, 200, 7, 3},
		{2, 0, leafFanout + 1, 0, 0}, // one-entry last leaf
		{2, 5_000_000_000, 10 * leafFanout, 0, 0},
		{2, 0, two, 0, 0},
		{2, 3, 20 * leafFanout, 11, 1},
		{3, 0, two + 1, 0, 0}, // a one-entry last leaf under a one-entry inner node
		{3, 1 << 40, two + 3*leafFanout, 0, 0},
		{3, 1, two + 500, 1000, 2},
	} {
		t.Run(fmt.Sprintf("h%d/base=%d/n=%d/gaps=%d", c.height, c.base, c.n, c.every), func(t *testing.T) {
			keys := denseKeys(c.base, c.n, c.every, c.skip)
			vals := make([]uint64, len(keys))
			oracle := make(map[uint64]uint64, len(keys))
			for i, k := range keys {
				vals[i] = k*7 + 1
				oracle[k] = vals[i]
			}
			tree, pool := buildTree(t, keys, vals)
			probes := []uint64{keys[len(keys)-1] + 1, keys[len(keys)-1] + 1000, math.MaxUint64}
			if c.base > 0 {
				probes = append(probes, 0, c.base-1)
			}
			for i, k := range keys {
				probes = append(probes, k)
				if i > 0 {
					for gap := keys[i-1] + 1; gap < k; gap++ {
						probes = append(probes, gap)
					}
				}
			}
			for _, k := range probes {
				before := pool.Stats().Logical
				got, ok, err := tree.Lookup(k)
				if err != nil {
					t.Fatal(err)
				}
				if want, wantOK := oracle[k]; ok != wantOK || got != want {
					t.Fatalf("Lookup(%d) = (%d, %v), want (%d, %v)", k, got, ok, want, wantOK)
				}
				if reads := pool.Stats().Logical - before; reads != int64(c.height) {
					t.Fatalf("Lookup(%d) read %d nodes, want %d (the tree's height)", k, reads, c.height)
				}
			}
		})
	}
}

// A tree page forged to pass its checksum fails the lookup that reads it
// with a storage fault, counted as a permanent failure, and never panics or
// hangs: a leaf whose entry count runs past its page (its binary search
// would index far beyond it), and an inner root whose only child is itself. The adjacency tree's root is rewritten and
// its checksum slot resealed; a watchdog fails the test if the lookup does
// not return.
func TestForgedTreePageFails(t *testing.T) {
	le := binary.LittleEndian
	for _, c := range []struct {
		name   string
		mutate func(root PageID, page []byte)
	}{
		{"leaf count 0xFFFF", func(_ PageID, page []byte) {
			page[0] = leafKind
			le.PutUint16(page[1:3], 0xFFFF)
			le.PutUint64(page[btreeHeader:], 1) // so node 0 is binary-searched for
		}},
		{"inner root is its own child", func(root PageID, page []byte) {
			page[0] = innerKind
			le.PutUint16(page[1:3], 1)
			le.PutUint64(page[btreeHeader:], 0)
			le.PutUint32(page[btreeHeader+8:], uint32(root))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev, err := BuildMem(sampleGraph(t))
			if err != nil {
				t.Fatal(err)
			}
			clean, err := OpenOptions(dev, 0.3, PoolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			root := clean.hdr.adjTreeRoot
			rewritePage(t, dev, root, func(page []byte) { c.mutate(root, page) })
			n, err := OpenOptions(dev, 0.3, PoolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Errorf("panic: %v", r)
					}
				}()
				_, err := n.Adjacency(0)
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Adjacency over the forged tree did not return within 10s")
			}
			if !IsFault(err) {
				t.Fatalf("Adjacency over the forged tree: %v, want a storage fault", err)
			}
			if errors.Is(err, ErrChecksum) {
				t.Fatalf("Adjacency error %v: the checksum slot was resealed, the tree must catch it", err)
			}
			if fs := n.FailureStats(); fs.Permanent != 1 {
				t.Fatalf("FailureStats %v after one forged lookup, want permanent=1", fs)
			}
		})
	}
}
