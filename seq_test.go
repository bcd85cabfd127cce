package mcn

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// seqNetworks returns in-memory and disk-resident views of one synthetic
// network plus query locations, for exercising the streaming surface over
// both backends (the disk path streams on nil scratch / map state).
func seqNetworks(t *testing.T) (map[string]*Network, []Location) {
	t.Helper()
	g, err := Synthetic(SyntheticConfig{Nodes: 1_500, Facilities: 250, D: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seq.mcn")
	if err := CreateDatabase(g, path); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDatabaseOptions(path, 0.05, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return map[string]*Network{"memory": FromGraph(g), "disk": db}, RandomQueries(g, 6, 17)
}

// SkylineSeq must stream exactly the facilities, in exactly the confirmed
// order, that the Progressive callback delivers — for both engines.
func TestSkylineSeqMatchesProgressiveOrder(t *testing.T) {
	nets, locs := seqNetworks(t)
	for name, net := range nets {
		for _, eng := range []Engine{LSA, CEA} {
			t.Run(name+"/"+eng.String(), func(t *testing.T) {
				for _, loc := range locs {
					var progressive []FacilityID
					res, err := net.Skyline(ctx, loc, WithEngine(eng),
						Progressive(func(f Facility) { progressive = append(progressive, f.ID) }))
					if err != nil {
						t.Fatal(err)
					}
					var streamed []FacilityID
					for f, err := range net.SkylineSeq(ctx, loc, WithEngine(eng)) {
						if err != nil {
							t.Fatal(err)
						}
						streamed = append(streamed, f.ID)
					}
					if !reflect.DeepEqual(streamed, progressive) {
						t.Fatalf("SkylineSeq order %v != Progressive order %v", streamed, progressive)
					}
					if len(streamed) != len(res.Facilities) {
						t.Fatalf("streamed %d facilities, result has %d", len(streamed), len(res.Facilities))
					}
				}
			})
		}
	}
}

// TopKSeq must yield the same ranking as the closeable iterator and the
// batch TopK call.
func TestTopKSeqMatchesIterator(t *testing.T) {
	nets, locs := seqNetworks(t)
	net := nets["memory"]
	agg := WeightedSum(0.5, 0.3, 0.2)
	for _, loc := range locs {
		res, err := net.TopK(ctx, loc, agg, 5)
		if err != nil {
			t.Fatal(err)
		}
		var got []Facility
		for f, err := range net.TopKSeq(ctx, loc, agg) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, f)
			if len(got) == 5 {
				break
			}
		}
		if len(got) != len(res.Facilities) {
			t.Fatalf("TopKSeq yielded %d, TopK returned %d", len(got), len(res.Facilities))
		}
		for i := range got {
			if got[i].ID != res.Facilities[i].ID ||
				math.Abs(got[i].Score-res.Facilities[i].Score) > 1e-9 {
				t.Fatalf("rank %d: seq (%d, %g) != batch (%d, %g)",
					i, got[i].ID, got[i].Score, res.Facilities[i].ID, res.Facilities[i].Score)
			}
		}
	}
}

// Breaking out of a Seq loop stops the query cleanly, and the pooled
// scratch it borrowed is reusable: subsequent full queries must be correct.
func TestSeqEarlyBreakLeavesPoolHealthy(t *testing.T) {
	nets, locs := seqNetworks(t)
	net := nets["memory"]
	loc := locs[0]
	want, err := net.Skyline(ctx, loc, WithEngine(CEA))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		n := 0
		for _, err := range net.SkylineSeq(ctx, loc, WithEngine(CEA)) {
			if err != nil {
				t.Fatal(err)
			}
			n++
			if n > i%3 {
				break // abandon mid-stream, at varying depths
			}
		}
		for f, err := range net.TopKSeq(ctx, loc, WeightedSum(1, 1, 1)) {
			if err != nil {
				t.Fatal(err)
			}
			_ = f
			break // first result only
		}
	}
	got, err := net.Skyline(ctx, loc, WithEngine(CEA))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idsSorted(got), idsSorted(want)) {
		t.Fatalf("skyline after abandoned streams %v != %v", idsSorted(got), idsSorted(want))
	}
}

// Errors surface exactly once through the Seq's error slot.
func TestSeqErrorPropagation(t *testing.T) {
	nets, _ := seqNetworks(t)
	net := nets["memory"]
	bad := Location{Edge: EdgeID(net.NumEdges() + 5), T: 0.5}
	var yields, errs int
	for _, err := range net.SkylineSeq(ctx, bad) {
		yields++
		if err != nil {
			errs++
		}
	}
	if yields != 1 || errs != 1 {
		t.Fatalf("bad location: %d yields, %d errors; want exactly one error yield", yields, errs)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	errs = 0
	for _, err := range net.SkylineSeq(cancelled, RandomQueries(mustGraph(t, net), 1, 4)[0]) {
		if err == nil {
			continue
		}
		errs++
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	if errs != 1 {
		t.Fatalf("cancelled stream yielded %d errors, want 1", errs)
	}
}

// Breaking the loop and cancelling the context in the same round must not
// re-enter the consumer: a range-over-func panics if yielded to after it
// returned false, so the driver has to swallow late interrupt errors once
// the consumer is gone.
func TestSeqBreakWithConcurrentCancel(t *testing.T) {
	nets, locs := seqNetworks(t)
	net := nets["memory"]
	for _, loc := range locs {
		streamCtx, cancel := context.WithCancel(context.Background())
		for _, err := range net.SkylineSeq(streamCtx, loc) {
			if err != nil {
				t.Fatal(err)
			}
			cancel() // driver sees both a stop and a cancelled ctx
			break
		}
		cancel()
	}
}

func mustGraph(t *testing.T, net *Network) *Graph {
	t.Helper()
	if net.g == nil {
		t.Fatal("network has no in-memory graph")
	}
	return net.g
}
