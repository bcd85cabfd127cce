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
