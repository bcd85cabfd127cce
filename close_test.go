package mcn

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/flat"
)

// distinctScratches fails the test if the pool hands the same scratch to two
// holders at once — what a scratch released twice leads to.
func distinctScratches(t *testing.T, src expand.Source, trial int) {
	t.Helper()
	held := make(map[*expand.Scratch]bool)
	for i := 0; i < 16; i++ {
		sc := expand.Acquire(src)
		if held[sc] {
			t.Fatalf("trial %d: the pool handed out one scratch twice: it was released more than once", trial)
		}
		held[sc] = true
	}
	for sc := range held {
		sc.Release()
	}
}

// Close must release the scratch exactly once no matter how many goroutines
// race on it (run with -race, which sees a second release as a write racing
// the first), and Next must fail closed.
func TestIteratorCloseReleasesOnce(t *testing.T) {
	g := cityGraph(t)
	src := flat.Compile(g)
	loc, err := LocationAtNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		it, err := core.NewTopKIterator(src, loc, WeightedSum(1, 1), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				it.Close()
			}()
		}
		wg.Wait()
		distinctScratches(t, src, trial)
		if _, _, err := it.Next(); !errors.Is(err, ErrIteratorClosed) {
			t.Fatalf("Next after Close: err = %v, want ErrIteratorClosed", err)
		}
	}
}

// The Maintainer's side of the contract. It holds nothing pooled — its
// build releases its scratch before Maintain returns — so Close only flags
// it: eight goroutines racing Close against one that keeps inserting must
// be clean under -race, the inserter must stop on ErrMaintainerClosed, every
// Insert after Close must fail the same way, and the maintained entries
// must stay readable.
func TestMaintainerCloseReleasesOnce(t *testing.T) {
	g := cityGraph(t)
	net := FromGraph(g)
	loc, err := LocationAtNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		m, err := net.Maintain(ctx, loc)
		if err != nil {
			t.Fatal(err)
		}
		initial := m.Len()
		inserted := make(chan int)
		go func() {
			n := 0
			for {
				if _, err := m.Insert(0, 0.5); err != nil {
					if !errors.Is(err, ErrMaintainerClosed) {
						t.Errorf("trial %d: Insert racing Close: err = %v, want ErrMaintainerClosed", trial, err)
					}
					inserted <- n
					return
				}
				n++
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Close()
			}()
		}
		wg.Wait()
		n := <-inserted
		for i := 0; i < 3; i++ {
			if _, err := m.Insert(0, 0.5); !errors.Is(err, ErrMaintainerClosed) {
				t.Fatalf("trial %d: Insert after Close: err = %v, want ErrMaintainerClosed", trial, err)
			}
		}
		if len(m.Skyline()) == 0 {
			t.Fatalf("trial %d: maintained skyline unreadable after Close", trial)
		}
		if m.Len() != initial+n {
			t.Fatalf("trial %d: %d entries after %d inserts on %d, want %d", trial, m.Len(), n, initial, initial+n)
		}
	}
}

// Close racing an in-flight Next must not release the scratch from under
// it: Close drains the call (the closed flag aborts it promptly), so the
// pool never receives a scratch another goroutine is still expanding on.
// Run with -race; the interleaved full queries would also catch a shared
// scratch via wrong results.
func TestCloseConcurrentWithNext(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{Nodes: 800, Facilities: 120, D: 2, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	net := FromGraph(g)
	loc := RandomQueries(g, 1, 5)[0]
	agg := WeightedSum(1, 1)

	for trial := 0; trial < 30; trial++ {
		it, err := net.TopKIterator(ctx, loc, agg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				if _, ok, err := it.Next(); err != nil || !ok {
					return // ErrIteratorClosed or exhaustion
				}
			}
		}()
		go func() {
			defer wg.Done()
			it.Close()
		}()
		// Concurrent plain queries drawing from the same pool.
		if _, err := net.Skyline(ctx, loc); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// Closed handles must return their scratch to the pool without poisoning
// it: interleave iterator/maintainer lifecycles with plain queries and
// check the answers stay right.
func TestCloseReturnsScratchWithoutPoisoning(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{Nodes: 1_000, Facilities: 150, D: 2, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	net := FromGraph(g)
	locs := RandomQueries(g, 4, 11)
	agg := WeightedSum(0.6, 0.4)

	want := make([][]FacilityID, len(locs))
	for i, loc := range locs {
		res, err := net.Skyline(ctx, loc, WithEngine(CEA))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = idsSorted(res)
	}

	for round := 0; round < 30; round++ {
		loc := locs[round%len(locs)]
		it, err := net.TopKIterator(ctx, loc, agg)
		if err != nil {
			t.Fatal(err)
		}
		for pulls := 0; pulls <= round%4; pulls++ {
			if _, ok, err := it.Next(); err != nil || !ok {
				break
			}
		}
		it.Close()
		it.Close() // double-Close from the owner must be a no-op

		m, err := net.Maintain(ctx, loc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Insert(loc.Edge, loc.T); err != nil {
			t.Fatal(err)
		}
		m.Close()

		res, err := net.Skyline(ctx, loc, WithEngine(CEA))
		if err != nil {
			t.Fatal(err)
		}
		if got := idsSorted(res); !reflect.DeepEqual(got, want[round%len(locs)]) {
			t.Fatalf("round %d: skyline %v != %v after handle churn", round, got, want[round%len(locs)])
		}
	}
}
