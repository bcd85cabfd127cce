package timedep

import (
	"fmt"
	"math/rand"

	"mcn/internal/graph"
	"mcn/internal/vec"
)

// AttachSyntheticProfiles attaches deterministic rush-hour-style profiles to
// count distinct edges of n, for benchmarks and multi-node equivalence tests
// that need a non-trivial time axis without hand-authoring profiles. Each
// chosen edge gets four breakpoints (morning ramp-up, midday relief,
// evening ramp-up, night relief, jittered per edge so the elementary
// interval structure is not degenerate) with per-cost multipliers in
// [0.5, 3]. The schedule is a pure function of seed: the same (graph, count,
// seed) always produces the same profiles, so two replicas calling this see
// identical time-dependent networks. The profiles land as one version: one
// merge of the time axis, however many edges they cover.
func AttachSyntheticProfiles(n *Network, count int, seed int64) error {
	edges := n.base.NumEdges()
	if edges == 0 {
		return fmt.Errorf("timedep: cannot attach profiles to a network with no edges")
	}
	if count > edges {
		count = edges
	}
	d := n.base.D()
	rng := rand.New(rand.NewSource(seed))
	edits := make(map[graph.EdgeID]Profile, count)
	for len(edits) < count {
		e := graph.EdgeID(rng.Intn(edges))
		if _, ok := edits[e]; ok {
			continue
		}
		times := []float64{
			6 + rng.Float64(),  // morning rush begins
			9 + rng.Float64(),  // relief
			16 + rng.Float64(), // evening rush begins
			19 + rng.Float64(), // night
		}
		mult := make([]vec.Costs, len(times))
		for i := range mult {
			m := make(vec.Costs, d)
			for j := range m {
				m[j] = 0.5 + 2.5*rng.Float64()
			}
			mult[i] = m
		}
		edits[e] = Profile{Times: times, Mult: mult}
	}
	return n.setProfiles(edits)
}
