// The absolute allocation bound below holds for normal builds only: under
// -race, sync.Pool drops pooled scratch at random and race instrumentation
// allocates on its own.

//go:build !race

package index

import "testing"

// A repeated build allocates only its result and its reversed arc set: the
// passes' weight column, seeds and frontier buckets come from the pool and
// go back to it. The gate is the count measured once the pool is warm, on
// the one worker AllocsPerRun's GOMAXPROCS=1 leaves: the identity
// numbering and the base-cost closure, the CSR's three arrays and its fill
// cursor, the table and its Bounds, the workers' errors, the worker and
// what it shares. Before the pool, each build also regrew the scratch and
// every frontier bucket.
func TestFromCostsReusesPassScratch(t *testing.T) {
	g := hardInstance(5, 4, false)
	FromGraph(g) // warm the pool
	if got := testing.AllocsPerRun(50, func() { FromGraph(g) }); got > fromCostsAllocs {
		t.Errorf("FromGraph made %v allocations per build, want at most %d", got, fromCostsAllocs)
	}
}

// fromCostsAllocs is TestFromCostsReusesPassScratch's gate.
const fromCostsAllocs = 13
