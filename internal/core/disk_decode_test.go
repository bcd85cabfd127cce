package core

import (
	"fmt"
	"testing"

	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/storage"
	"mcn/internal/vec"
)

// adjacencyOnly hides everything of the disk store but the six
// expand.Source methods, as a caller's tracing wrapper does: expansions and
// the CEA memo then read records through Adjacency and Facilities, which
// allocate, instead of decoding them in place.
type adjacencyOnly struct{ expand.Source }

// The two ways of reading a disk record must be indistinguishable: every
// query kind with either engine gives the same answer, the same Stats and
// the same logical and physical page reads over the raw store as behind a
// six-method wrapper, each side on a fresh pool of its own.
func TestDiskWrapperMatchesDirectDecode(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 1500, Facilities: 400, D: 3, Queries: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := storage.BuildMem(inst.Graph)
	if err != nil {
		t.Fatal(err)
	}
	open := func() *storage.Network {
		net, err := storage.Open(dev, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	raw, wrappedStore := open(), open()
	wrapped := adjacencyOnly{wrappedStore}
	agg := vec.NewWeighted(1, 0.5, 0.25)
	budget := vec.Of(12, 12, 12)
	others := []graph.Location{inst.Queries[0], inst.Queries[len(inst.Queries)-1]}
	kinds := []struct {
		name string
		run  func(expand.Source, graph.Location, Options) (*Result, error)
	}{
		{"skyline", func(s expand.Source, l graph.Location, o Options) (*Result, error) { return Skyline(s, l, o) }},
		{"topk", func(s expand.Source, l graph.Location, o Options) (*Result, error) { return TopK(s, l, agg, 4, o) }},
		{"within", func(s expand.Source, l graph.Location, o Options) (*Result, error) {
			o.Bounds = raw.Bounds()
			return Within(s, l, budget, o)
		}},
		{"nearest", func(s expand.Source, l graph.Location, o Options) (*Result, error) { return Nearest(s, l, 1, 5, o) }},
		{"multisource skyline", func(s expand.Source, l graph.Location, o Options) (*Result, error) {
			return MultiSourceSkyline(s, 0, append(others, l), o)
		}},
		{"multisource topk", func(s expand.Source, l graph.Location, o Options) (*Result, error) {
			return MultiSourceTopK(s, 2, append(others, l), agg, 4, o)
		}},
	}
	for qi, loc := range inst.Queries {
		for _, k := range kinds {
			for _, eng := range []Engine{LSA, CEA} {
				label := fmt.Sprintf("q%d %s %v", qi, k.name, eng)
				want, err := k.run(raw, loc, Options{Engine: eng})
				if err != nil {
					t.Fatalf("%s raw: %v", label, err)
				}
				got, err := k.run(wrapped, loc, Options{Engine: eng})
				if err != nil {
					t.Fatalf("%s wrapped: %v", label, err)
				}
				if got.Stats != want.Stats {
					t.Errorf("%s: stats %+v behind the wrapper, %+v raw", label, got.Stats, want.Stats)
				}
				if len(got.Facilities) != len(want.Facilities) {
					t.Fatalf("%s: %d facilities behind the wrapper, %d raw", label, len(got.Facilities), len(want.Facilities))
				}
				for i, f := range want.Facilities {
					if g := got.Facilities[i]; g.ID != f.ID || !g.Costs.Equal(f.Costs) || g.Score != f.Score {
						t.Fatalf("%s: result %d is %+v behind the wrapper, %+v raw", label, i, g, f)
					}
				}
				if w, r := wrappedStore.Stats(), raw.Stats(); w != r {
					t.Fatalf("%s: page reads %v behind the wrapper, %v raw", label, w, r)
				}
			}
		}
	}
}
