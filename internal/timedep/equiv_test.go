package timedep

import (
	"math/rand"
	"testing"

	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// Reference networks for the version and index tests; the sweeps' own check
// is the lattice's period kinds (lattice_test.go).

// randomProfiled takes a 200-node network from testnet's hard-case
// generator (d = 3, integer costs), profiles a few of its edges with
// multipliers drawn from {0.5, 1, 2, 3} (below and above 1, all exact in
// binary), and returns it with the generator's query locations.
func randomProfiled(t *testing.T, directed bool, seed int64) (*Network, []graph.Location) {
	t.Helper()
	inst := testnet.Generate(seed, testnet.Shape{D: 3, Directed: directed, Nodes: 200})
	n := New(inst.G)
	rng := rand.New(rand.NewSource(seed * 31))
	for i := 0; i < 4; i++ {
		e := graph.EdgeID(rng.Intn(inst.G.NumEdges()))
		nb := 1 + rng.Intn(3)
		times := make([]float64, 0, nb)
		at := rng.Float64() * 30
		for len(times) < nb {
			times = append(times, at)
			at += 1 + rng.Float64()*25
		}
		mult := make([]vec.Costs, nb)
		for j := range mult {
			m := make(vec.Costs, inst.G.D())
			for c := range m {
				m[c] = []float64{0.5, 1, 2, 3}[rng.Intn(4)] // exact: ties survive
			}
			mult[j] = m
		}
		if err := n.SetProfile(e, Profile{Times: times, Mult: mult}); err != nil {
			t.Fatal(err)
		}
	}
	return n, append([]graph.Location{inst.Loc}, inst.Locs...)
}
