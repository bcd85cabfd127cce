package timedep

import (
	"reflect"
	"testing"

	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// AttachSyntheticProfiles must be a pure function of (graph, count, seed) —
// two replicas calling it see identical time-dependent networks — and must
// produce a non-degenerate interval structure.
func TestAttachSyntheticProfiles(t *testing.T) {
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 300, Facilities: 40, Clusters: 2, D: 3, Seed: 3, Queries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	build := func() *Network {
		n := New(inst.Graph)
		if err := AttachSyntheticProfiles(n, 20, 11); err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := build(), build()

	bpA := a.Breakpoints(0, 24)
	bpB := b.Breakpoints(0, 24)
	if !reflect.DeepEqual(bpA, bpB) {
		t.Fatal("same (graph, count, seed) produced different breakpoints")
	}
	// 20 profiled edges x 4 jittered breakpoints each: the elementary
	// interval structure must be non-degenerate.
	if len(bpA) < 10 {
		t.Fatalf("only %d breakpoints, want a dense time axis", len(bpA))
	}
	for e := 0; e < inst.Graph.NumEdges(); e++ {
		ca, err := a.CostAt(graph.EdgeID(e), 7.5)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.CostAt(graph.EdgeID(e), 7.5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("edge %d: costs differ at t=7.5: %v vs %v", e, ca, cb)
		}
	}

	// Asking for more profiles than edges clamps instead of spinning.
	small := graph.NewBuilder(3, false)
	testnet.AddNodes(small, 2)
	se := small.AddEdge(0, 1, vec.Of(1, 1, 1))
	small.AddFacility(se, 0.5)
	sn := New(testnet.MustBuild(small))
	if err := AttachSyntheticProfiles(sn, 99, 1); err != nil {
		t.Fatal(err)
	}

	// A network with no edges cannot carry profiles.
	empty := graph.NewBuilder(3, false)
	testnet.AddNodes(empty, 1)
	if err := AttachSyntheticProfiles(New(testnet.MustBuild(empty)), 1, 1); err == nil {
		t.Error("want error for an edgeless network")
	}
}
