package dynamic

import (
	"math/rand"
	"testing"

	"mcn/internal/core"
	"mcn/internal/flat"
	"mcn/internal/gen"
	"mcn/internal/graph"
)

// BenchmarkMaintainerInsert: one facility insert into a maintainer on an
// sf25-shaped network (43 750 nodes, 25 000 facilities, d = 4) over the flat
// source, at a random edge and fraction each time. The maintainer's build
// is outside the timer; what remains is Insert's edge lookup and cost
// arithmetic, with its allocs/op printed by `make benchmem`.
func BenchmarkMaintainerInsert(b *testing.B) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 43_750, Facilities: 25_000, D: 4, Queries: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(flat.Compile(inst.Graph), inst.Queries[0], core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sites := make([]Entry, 1024)
	for i := range sites {
		sites[i] = Entry{Edge: graph.EdgeID(rng.Intn(inst.Graph.NumEdges())), T: rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sites[i%len(sites)]
		if _, err := m.Insert(s.Edge, s.T); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintainerBuild: materialising a maintainer on the same sf25
// shape and flat source as BenchmarkMaintainerInsert — d node-distance
// passes over the source's heads column, run concurrently, then one sweep
// of the facility records — with its allocs/op and bytes/op printed by
// `make benchmem`.
func BenchmarkMaintainerBuild(b *testing.B) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 43_750, Facilities: 25_000, D: 4, Queries: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := flat.Compile(inst.Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(src, inst.Queries[0], core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
