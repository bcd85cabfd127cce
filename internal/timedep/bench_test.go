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
func td2k(tb testing.TB) *gen.Instance {
	tb.Helper()
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 2000, Facilities: 1150, D: 4, Queries: 1, Seed: 1, Dist: gen.AntiCorrelated,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// BenchmarkSetProfileThenRead is update_mix's time-dependent write path in
// isolation: on td2k with 32 profiles on the breakpoint palette 7 / 9.5 /
// 17 / 19.5, one op is a SetProfile followed by one SkylineAt. Under
// axis=kept the edit re-profiles one of the 32 seeded edges on the palette,
// so the axis holds and the network keeps its 32 profiles, whatever b.N;
// under axis=moved it flips one edge between two other breakpoint sets, so
// every edit retires instants and adds others. Either way the edit builds
// one edge's rows and the read compiles nothing.
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
	var seeded [32]graph.EdgeID
	for _, tc := range []struct {
		name string
		edit func(rng *rand.Rand, i int) (graph.EdgeID, Profile)
	}{
		{"axis=kept", func(rng *rand.Rand, i int) (graph.EdgeID, Profile) {
			return seeded[i%len(seeded)], profile(rng, palette)
		}},
		{"axis=moved", func(rng *rand.Rand, i int) (graph.EdgeID, Profile) {
			return 0, profile(rng, flips[i%2])
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			n := New(g)
			for i := range seeded {
				seeded[i] = graph.EdgeID(1 + rng.Intn(g.NumEdges()-1))
				if err := n.SetProfile(seeded[i], profile(rng, palette)); err != nil {
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

// BenchmarkOverPeriod is serve_mixed's period kinds in isolation: seeded
// 6-interval skyline and top-k sweeps (LSA and CEA) on td2k under mcnserve
// -timedep's synthetic profiles, cut from the time axis as the benchmark
// cuts them. queries/sweep counts the intervals that ran a static query;
// the rest extended the previous interval because no cost the last run read
// had changed (a sweep that ran every interval scored 6).
func BenchmarkOverPeriod(b *testing.B) {
	g := td2k(b).Graph
	n := New(g)
	if err := AttachSyntheticProfiles(n, g.NumEdges()/10, 1); err != nil {
		b.Fatal(err)
	}
	cases := sweepCases(n, 50, rand.New(rand.NewSource(1)))
	for _, kind := range []string{"skyline", "topk"} {
		b.Run(kind, func(b *testing.B) {
			var mine []sweepCase
			for _, c := range cases {
				if c.topk == (kind == "topk") {
					mine = append(mine, c)
				}
			}
			queries := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mine[i%len(mine)].run(b, n, &queries)
			}
			b.ReportMetric(float64(queries)/float64(b.N), "queries/sweep")
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
