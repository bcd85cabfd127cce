package flat

import (
	"fmt"
	"math/rand"
	"testing"

	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/storage"
	"mcn/internal/vec"
)

// tieGraph is a small random network built to tie: integer costs in [0, 2]
// (zero-length edges included), parallel edges, and facilities at the ends
// and middle of their edges. Nodes get random coordinates, so the locality
// order is far from the identity.
func tieGraph(rng *rand.Rand, d int, directed bool) *graph.Graph {
	n := 20 + rng.Intn(60)
	b := graph.NewBuilder(d, directed)
	for i := 0; i < n; i++ {
		b.AddNode(rng.Float64(), rng.Float64())
	}
	costs := func() vec.Costs {
		w := make(vec.Costs, d)
		for i := range w {
			w[i] = float64(rng.Intn(3))
		}
		return w
	}
	for v := 1; v < n; v++ {
		u := graph.NodeID(rng.Intn(v))
		if directed && rng.Intn(2) == 0 {
			b.AddEdge(graph.NodeID(v), u, costs())
		} else {
			b.AddEdge(u, graph.NodeID(v), costs())
		}
	}
	edges := n - 1
	for i := 0; i < n; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v, costs())
			edges++
		}
	}
	for i := 0; i < n/3; i++ {
		b.AddFacility(graph.EdgeID(rng.Intn(edges)), []float64{0, 0.5, 1}[rng.Intn(3)])
	}
	return b.MustBuild()
}

// permuted returns g with its nodes renumbered at random; edge and facility
// ids, and so every arc row's order, stay as they are.
func permuted(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	perm := rng.Perm(g.NumNodes()) // old id → new id
	inv := make([]int, len(perm))
	for v, p := range perm {
		inv[p] = v
	}
	b := graph.NewBuilder(g.D(), g.Directed())
	for _, v := range inv {
		p := g.Node(graph.NodeID(v))
		b.AddNode(p.X, p.Y)
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		b.AddEdge(graph.NodeID(perm[ed.U]), graph.NodeID(perm[ed.V]), ed.W)
	}
	for f := 0; f < g.NumFacilities(); f++ {
		fac := g.Facility(graph.FacilityID(f))
		b.AddFacility(fac.Edge, fac.T)
	}
	return b.MustBuild()
}

// TestNumberingDoesNotChangeResults: how a source numbers its nodes must not
// show in any answer or any work counter. Every query kind, over LSA and
// CEA, gives identical facilities and identical Stats on MemorySource(g), on
// MemorySource of g with its nodes permuted at random, on Compile(g), which
// numbers them in locality order, and on g's disk database, which numbers
// them the same way, behind a 1 % and a 100 % buffer pool. Within runs with
// and without the pruning index, each source's in its own numbering.
func TestNumberingDoesNotChangeResults(t *testing.T) {
	type source struct {
		name   string
		src    expand.Source
		bounds *index.Bounds
	}
	for _, directed := range []bool{false, true} {
		for _, d := range []int{1, 3} {
			for seed := int64(1); seed <= 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := tieGraph(rng, d, directed)
				pg := permuted(g, rng)
				fs := Compile(g)
				sources := []source{
					{"mem", expand.NewMemorySource(g), index.FromGraph(g)},
					{"permuted mem", expand.NewMemorySource(pg), index.FromGraph(pg)},
					{"flat", fs, fs.Bounds(index.FromGraph(g))},
				}
				dev, err := storage.BuildMem(g)
				if err != nil {
					t.Fatal(err)
				}
				for _, frac := range []float64{0.01, 1} {
					disk, err := storage.OpenOptions(dev, frac, storage.PoolOptions{})
					if err != nil {
						t.Fatal(err)
					}
					sources = append(sources, source{fmt.Sprintf("disk %g%%", frac*100), disk, disk.Bounds()})
				}
				weights := make([]float64, d)
				budget := make(vec.Costs, d)
				for i := range weights {
					weights[i], budget[i] = float64(1+i%2), 3
				}
				agg := vec.NewWeighted(weights...)
				var locs []graph.Location
				for i := 0; i < 4; i++ {
					locs = append(locs, graph.Location{Edge: graph.EdgeID(rng.Intn(g.NumEdges())), T: []float64{0, 0.5, 1}[i%3]})
				}
				queries := map[string]func(s source, loc graph.Location, o core.Options) (*core.Result, error){
					"skyline": func(s source, loc graph.Location, o core.Options) (*core.Result, error) {
						return core.Skyline(s.src, loc, o)
					},
					"topk": func(s source, loc graph.Location, o core.Options) (*core.Result, error) {
						return core.TopK(s.src, loc, agg, 3, o)
					},
					"topk k>|P|": func(s source, loc graph.Location, o core.Options) (*core.Result, error) {
						return core.TopK(s.src, loc, agg, g.NumFacilities()+2, o)
					},
					"nearest": func(s source, loc graph.Location, o core.Options) (*core.Result, error) {
						return core.Nearest(s.src, loc, d-1, 4, o)
					},
					"within": func(s source, loc graph.Location, o core.Options) (*core.Result, error) {
						return core.Within(s.src, loc, budget, o)
					},
					"within pruned": func(s source, loc graph.Location, o core.Options) (*core.Result, error) {
						o.Bounds = s.bounds
						return core.Within(s.src, loc, budget, o)
					},
					"multisource skyline": func(s source, loc graph.Location, o core.Options) (*core.Result, error) {
						return core.MultiSourceSkyline(s.src, 0, append([]graph.Location{loc}, locs[0]), o)
					},
					"multisource topk": func(s source, loc graph.Location, o core.Options) (*core.Result, error) {
						return core.MultiSourceTopK(s.src, 0, append([]graph.Location{loc}, locs[0]), vec.NewWeighted(1, 1), 3, o)
					},
					"baseline skyline": func(s source, loc graph.Location, o core.Options) (*core.Result, error) {
						return core.NaiveSkyline(s.src, loc, o)
					},
					"baseline topk": func(s source, loc graph.Location, o core.Options) (*core.Result, error) {
						return core.NaiveTopK(s.src, loc, agg, 3, o)
					},
				}
				for qi, loc := range locs {
					for name, run := range queries {
						for _, eng := range []core.Engine{core.LSA, core.CEA} {
							label := fmt.Sprintf("directed=%v d=%d seed=%d q%d %s/%v", directed, d, seed, qi, name, eng)
							want, err := run(sources[0], loc, core.Options{Engine: eng})
							if err != nil {
								t.Fatalf("%s on %s: %v", label, sources[0].name, err)
							}
							for _, s := range sources[1:] {
								got, err := run(s, loc, core.Options{Engine: eng})
								if err != nil {
									t.Fatalf("%s on %s: %v", label, s.name, err)
								}
								sameFacilities(t, label+" on "+s.name, got.Facilities, want.Facilities)
								if got.Stats != want.Stats {
									t.Errorf("%s on %s: stats %+v, want %+v", label, s.name, got.Stats, want.Stats)
								}
							}
						}
					}
				}
			}
		}
	}
}
