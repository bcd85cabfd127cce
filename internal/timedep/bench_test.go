package timedep

import (
	"math/rand"
	"testing"

	"mcn/internal/core"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// td2k is the network behind the benchmark's time-dependent workloads:
// 2 000 nodes, 1 150 facilities, d = 4.
func td2k(b *testing.B) *gen.Instance {
	b.Helper()
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 2000, Facilities: 1150, D: 4, Queries: 1, Seed: 1, Dist: gen.AntiCorrelated,
	})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkSetProfileThenRead is update_mix's time-dependent write path in
// isolation: on td2k with 32 profiles on the breakpoint palette 7 / 9.5 /
// 17 / 19.5, one op is a SetProfile followed by one SkylineAt. Under
// axis=kept the edit profiles a random edge on the palette, as update_mix
// does, so the axis holds; under axis=moved it flips one edge between two
// other breakpoint sets, so every edit retires instants and adds others.
// Either way the edit builds one edge's rows and the read compiles nothing.
func BenchmarkSetProfileThenRead(b *testing.B) {
	inst := td2k(b)
	g := inst.Graph
	palette := []float64{7, 9.5, 17, 19.5}
	instants := []float64{6, 8, 12, 18, 21}
	profile := func(rng *rand.Rand, times []float64) Profile {
		p := Profile{Times: times}
		for range times {
			m := make(vec.Costs, g.D())
			for j := range m {
				m[j] = 0.5 + 2.5*rng.Float64()
			}
			p.Mult = append(p.Mult, m)
		}
		return p
	}
	flips := [][]float64{{8, 18}, {8.5, 18.5}}
	for _, tc := range []struct {
		name string
		edit func(rng *rand.Rand, i int) (graph.EdgeID, Profile)
	}{
		{"axis=kept", func(rng *rand.Rand, _ int) (graph.EdgeID, Profile) {
			return graph.EdgeID(rng.Intn(g.NumEdges())), profile(rng, palette)
		}},
		{"axis=moved", func(rng *rand.Rand, i int) (graph.EdgeID, Profile) {
			return 0, profile(rng, flips[i%2])
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			n := New(g)
			for i := 0; i < 32; i++ {
				if err := n.SetProfile(graph.EdgeID(1+rng.Intn(g.NumEdges()-1)), profile(rng, palette)); err != nil {
					b.Fatal(err)
				}
			}
			loc := inst.Queries[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n.SetProfile(tc.edit(rng, i)); err != nil {
					b.Fatal(err)
				}
				if _, err := n.SkylineAt(ctx, loc, instants[i%len(instants)], core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAttachSyntheticProfiles is mcnserve -timedep's start-up compile:
// New plus AttachSyntheticProfiles on a tenth of td2k's edges (945
// elementary intervals).
func BenchmarkAttachSyntheticProfiles(b *testing.B) {
	g := td2k(b).Graph
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := AttachSyntheticProfiles(New(g), g.NumEdges()/10, 1); err != nil {
			b.Fatal(err)
		}
	}
}
