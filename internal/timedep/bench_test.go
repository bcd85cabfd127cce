package timedep

import (
	"math/rand"
	"testing"

	"mcn/internal/core"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// BenchmarkSetProfileThenRead is update_mix's time-dependent write path in
// isolation: on the td2k shape (2 000 nodes, 1 150 facilities, d = 4) with
// every profile on the breakpoint palette 7 / 9.5 / 17 / 19.5, one op is a
// SetProfile on a random edge followed by one SkylineAt. The palette keeps
// the axis fixed, so the edit copies only the intervals it changes and the
// read compiles nothing.
func BenchmarkSetProfileThenRead(b *testing.B) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 2000, Facilities: 1150, D: 4, Queries: 1, Seed: 1, Dist: gen.AntiCorrelated,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := inst.Graph
	palette := []float64{7, 9.5, 17, 19.5}
	instants := []float64{6, 8, 12, 18, 21}
	rng := rand.New(rand.NewSource(1))
	profile := func() Profile {
		p := Profile{Times: palette}
		for range palette {
			m := make(vec.Costs, g.D())
			for j := range m {
				m[j] = 0.5 + 2.5*rng.Float64()
			}
			p.Mult = append(p.Mult, m)
		}
		return p
	}
	n := New(g)
	for i := 0; i < 32; i++ {
		if err := n.SetProfile(graph.EdgeID(rng.Intn(g.NumEdges())), profile()); err != nil {
			b.Fatal(err)
		}
	}
	loc := inst.Queries[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.SetProfile(graph.EdgeID(rng.Intn(g.NumEdges())), profile()); err != nil {
			b.Fatal(err)
		}
		if _, err := n.SkylineAt(ctx, loc, instants[i%len(instants)], core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
