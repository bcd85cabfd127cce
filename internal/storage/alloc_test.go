//go:build !race

package storage

import "testing"

// A warmed-up pool serves a miss out of the victim's buffer: a cold-page Get
// and its Release allocate nothing, whatever the policy, and neither does the
// borrowed-buffer path of a pool without capacity.
func TestMissAllocatesNothing(t *testing.T) {
	const pages = 64
	dev := stampDevice(t, pages)
	for _, tc := range []struct {
		name     string
		capacity int
		opts     PoolOptions
	}{
		{"clock", 8, PoolOptions{}},
		{"lru", 8, PoolOptions{Policy: PolicyLRU}},
		{"cap0", 0, PoolOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewBufferPool(dev, tc.capacity, tc.opts)
			next := PageID(0)
			miss := func() {
				// Cycling through 8× the capacity: every Get is a miss.
				if _, err := readStamp(pool, next); err != nil {
					t.Fatal(err)
				}
				next = (next + 1) % pages
			}
			for i := 0; i < 4*pages; i++ { // fill every frame, settle the maps
				miss()
			}
			before := pool.Stats().Physical
			if got := testing.AllocsPerRun(1000, miss); got != 0 {
				t.Errorf("%v allocs per cold-page Get+Release, want 0", got)
			}
			if misses := pool.Stats().Physical - before; misses != 1001 {
				t.Errorf("measured %d misses over 1001 gets: the pages were not cold", misses)
			}
		})
	}
}

// A hit allocates nothing either, under the lock (LRU) or without it (CLOCK).
func TestHitAllocatesNothing(t *testing.T) {
	dev := stampDevice(t, 8)
	for _, policy := range []Policy{PolicyClock, PolicyLRU} {
		pool := NewBufferPool(dev, 4, PoolOptions{Policy: policy})
		hit := func() {
			if _, err := readStamp(pool, 3); err != nil {
				t.Fatal(err)
			}
		}
		hit()
		if got := testing.AllocsPerRun(1000, hit); got != 0 {
			t.Errorf("%v: %v allocs per pool hit, want 0", policy, got)
		}
		if s := pool.Stats(); s.Physical != 1 {
			t.Errorf("%v: %v: the gets were not hits", policy, s)
		}
	}
}

// A record that spans a page boundary is assembled in a buffer the cursor
// borrows and close returns, so re-reading one allocates nothing.
func TestSpanningRecordAllocatesNothing(t *testing.T) {
	dev, refs, recs := spanningRecords(t)
	pool := NewBufferPool(dev, 8)
	read := func() {
		c := newCursor(nil, pool, refs[0])
		if _, err := c.next(len(recs[0])); err != nil {
			t.Fatal(err)
		}
		c.close()
	}
	read()
	if got := testing.AllocsPerRun(100, read); got != 0 {
		t.Errorf("%v allocs per spanning-record read, want 0", got)
	}
}
