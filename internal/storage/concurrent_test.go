package storage

import (
	"math/rand"
	"sync"
	"testing"
)

// The buffer pool must stay consistent under concurrent readers (run with
// -race). Contents must always be correct; physical counts may only be
// overstated by racing misses, never understated below the distinct-page
// count.
func TestBufferPoolConcurrentReaders(t *testing.T) {
	const pages = 64
	dev := stampDevice(t, pages)
	pool := NewBufferPool(dev, 16)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				id := PageID(rng.Intn(pages))
				stamp, err := readStamp(pool, id)
				if err != nil {
					t.Error(err)
					return
				}
				if stamp != uint32(id) {
					t.Errorf("page %d returned stamp %d", id, stamp)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	s := pool.Stats()
	if s.Logical != 8*2000 {
		t.Errorf("logical = %d, want %d", s.Logical, 8*2000)
	}
	if s.Physical < 1 || s.Physical > s.Logical {
		t.Errorf("implausible physical count %d", s.Physical)
	}
	if pool.Len() > 16 {
		t.Errorf("pool holds %d pages, capacity 16", pool.Len())
	}
}

// Whole networks must serve concurrent queries (each query is sequential;
// different queries share the pool).
func TestNetworkConcurrentAccess(t *testing.T) {
	g := sampleGraph(t)
	n := openNetwork(t, g, 0.3)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				entries, err := n.Adjacency(1)
				if err != nil || len(entries) == 0 {
					t.Errorf("Adjacency: %v", err)
					return
				}
				if _, err := n.EdgeInfo(0); err != nil {
					t.Errorf("EdgeInfo: %v", err)
					return
				}
				if _, err := n.FacilityEdge(0); err != nil {
					t.Errorf("FacilityEdge: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
