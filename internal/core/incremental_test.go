package core

import (
	"math"
	"math/rand"
	"testing"

	"mcn/internal/expand"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

func TestIncrementalMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	for trial := 0; trial < 80; trial++ {
		inst := randomInstance(t, rng, trial%4 == 0)
		agg := randomAggregate(rng, inst.g.D())
		k := 1 + rng.Intn(10)

		batch, err := TopK(expand.NewMemorySource(inst.g), inst.loc, agg, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		it, err := NewTopKIterator(expand.NewMemorySource(inst.g), inst.loc, agg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(batch.Facilities); i++ {
			f, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("trial %d: iterator ended at %d, batch has %d", trial, i, len(batch.Facilities))
			}
			want := batch.Facilities[i].Score
			if math.IsInf(f.Score, 1) && math.IsInf(want, 1) {
				continue
			}
			if math.Abs(f.Score-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("trial %d: incremental score[%d] = %g, batch %g", trial, i, f.Score, want)
			}
		}
	}
}

// Draining the iterator must enumerate every reachable facility in
// non-decreasing score order, matching the oracle's full ranking.
func TestIncrementalFullDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 60; trial++ {
		inst := randomInstance(t, rng, false)
		agg := randomAggregate(rng, inst.g.D())
		want := testnet.TopKScores(inst.g, inst.loc, agg, inst.g.NumFacilities())

		it, err := NewTopKIterator(expand.NewMemorySource(inst.g), inst.loc, agg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		seen := make(map[graph.FacilityID]bool)
		prev := math.Inf(-1)
		for {
			f, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if seen[f.ID] {
				t.Fatalf("trial %d: facility %d reported twice", trial, f.ID)
			}
			seen[f.ID] = true
			if f.Score < prev-1e-9 {
				t.Fatalf("trial %d: scores not non-decreasing: %g after %g", trial, f.Score, prev)
			}
			prev = f.Score
			got = append(got, f.Score)
		}
		// The oracle includes facilities unreachable in every dimension (it
		// scores them +Inf); the iterator cannot discover those, so compare
		// only the finite prefix plus count parity of +Inf entries it found.
		finiteWant := want[:0:0]
		for _, w := range want {
			if !math.IsInf(w, 1) {
				finiteWant = append(finiteWant, w)
			}
		}
		var finiteGot []float64
		for _, g := range got {
			if !math.IsInf(g, 1) {
				finiteGot = append(finiteGot, g)
			}
		}
		if len(finiteGot) != len(finiteWant) {
			t.Fatalf("trial %d: %d finite scores, want %d", trial, len(finiteGot), len(finiteWant))
		}
		for i := range finiteGot {
			if math.Abs(finiteGot[i]-finiteWant[i]) > 1e-9*(1+math.Abs(finiteWant[i])) {
				t.Fatalf("trial %d: drain score[%d] = %g, want %g", trial, i, finiteGot[i], finiteWant[i])
			}
		}
	}
}

func TestIncrementalCEA(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(t, rng, false)
		agg := randomAggregate(rng, inst.g.D())
		mem := expand.NewMemorySource(inst.g)
		it, err := NewTopKIterator(mem, inst.loc, agg, Options{Engine: CEA})
		if err != nil {
			t.Fatal(err)
		}
		// Pull three results.
		for i := 0; i < 3; i++ {
			if _, ok, err := it.Next(); err != nil || !ok {
				break
			}
		}
		if mem.Count.Snapshot().Adjacency > int64(inst.g.NumNodes()) {
			t.Fatalf("trial %d: incremental CEA fetched %d adjacency records for %d nodes",
				trial, mem.Count.Snapshot().Adjacency, inst.g.NumNodes())
		}
	}
}

func TestIncrementalEmpty(t *testing.T) {
	topo := gen.Path(4)
	g, err := gen.Assemble(topo, gen.UnitCosts(topo, 2), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewTopKIterator(expand.NewMemorySource(g), graph.Location{Edge: 0, T: 0.5}, vec.NewWeighted(1, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || ok {
		t.Errorf("empty network: Next = ok=%v err=%v, want exhausted", ok, err)
	}
	// Subsequent calls stay exhausted.
	if _, ok, _ := it.Next(); ok {
		t.Error("exhausted iterator revived")
	}
}

func TestIncrementalDimMismatch(t *testing.T) {
	topo := gen.Path(3)
	g, err := gen.Assemble(topo, gen.UnitCosts(topo, 2), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTopKIterator(expand.NewMemorySource(g), graph.Location{Edge: 0, T: 0}, vec.NewWeighted(1), Options{}); err == nil {
		t.Error("dimensionality mismatch accepted")
	}
}

// Incremental stats must accumulate.
func TestIncrementalStats(t *testing.T) {
	inst := randomInstance(t, rand.New(rand.NewSource(303)), false)
	agg := randomAggregate(rand.New(rand.NewSource(304)), inst.g.D())
	it, err := NewTopKIterator(expand.NewMemorySource(inst.g), inst.loc, agg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Skip("instance has no reachable facilities")
	}
	s := it.Stats()
	if s.Pops == 0 {
		t.Error("stats should record pops after a successful Next")
	}
}
