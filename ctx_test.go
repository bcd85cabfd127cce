package mcn

import (
	"context"
	"errors"
	"testing"
	"time"

	"mcn/internal/storage"
	"mcn/internal/testsupport/fault"
)

// Every facade query entry point must honour a cancelled context: the query
// aborts at its next interrupt poll with the context's error.
func TestContextCancellationPerQueryKind(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{Nodes: 1_200, Facilities: 200, D: 3, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	net := FromGraph(g)
	loc := RandomQueries(g, 2, 7)[0]
	locB := RandomQueries(g, 2, 7)[1]
	agg := WeightedSum(1, 1, 1)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	wantCanceled := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}

	t.Run("Skyline", func(t *testing.T) {
		_, err := net.Skyline(cancelled, loc)
		wantCanceled(t, err)
	})
	t.Run("TopK", func(t *testing.T) {
		_, err := net.TopK(cancelled, loc, agg, 3)
		wantCanceled(t, err)
	})
	t.Run("TopKIterator", func(t *testing.T) {
		it, err := net.TopKIterator(cancelled, loc, agg)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		_, _, err = it.Next()
		wantCanceled(t, err)
	})
	t.Run("Nearest", func(t *testing.T) {
		_, err := net.Nearest(cancelled, loc, 0, 3)
		wantCanceled(t, err)
	})
	t.Run("Within", func(t *testing.T) {
		_, err := net.Within(cancelled, loc, Of(100, 100, 100))
		wantCanceled(t, err)
	})
	t.Run("MultiSourceSkyline", func(t *testing.T) {
		_, err := net.MultiSourceSkyline(cancelled, 0, []Location{loc, locB})
		wantCanceled(t, err)
	})
	t.Run("MultiSourceTopK", func(t *testing.T) {
		_, err := net.MultiSourceTopK(cancelled, 0, []Location{loc, locB}, WeightedSum(1, 1), 3)
		wantCanceled(t, err)
	})
	t.Run("BaselineSkyline", func(t *testing.T) {
		_, err := net.BaselineSkyline(cancelled, loc)
		wantCanceled(t, err)
	})
	t.Run("BaselineTopK", func(t *testing.T) {
		_, err := net.BaselineTopK(cancelled, loc, agg, 3)
		wantCanceled(t, err)
	})
	t.Run("Maintain", func(t *testing.T) {
		_, err := net.Maintain(cancelled, loc)
		wantCanceled(t, err)
	})
	t.Run("SkylineSeq", func(t *testing.T) {
		var last error
		for _, err := range net.SkylineSeq(cancelled, loc) {
			last = err
		}
		wantCanceled(t, last)
	})
	t.Run("TopKSeq", func(t *testing.T) {
		var last error
		for _, err := range net.TopKSeq(cancelled, loc, agg) {
			last = err
		}
		wantCanceled(t, last)
	})
	t.Run("TimedepOverPeriod", func(t *testing.T) {
		tn := TimeDependent(g)
		if err := tn.SetProfile(0, TimeProfile{Times: []float64{5}, Mult: []Costs{Of(2, 2, 2)}}); err != nil {
			t.Fatal(err)
		}
		_, err := tn.SkylineOverPeriod(cancelled, loc, 0, 10, QueryOptions())
		wantCanceled(t, err)
		_, err = tn.TopKOverPeriod(cancelled, loc, agg, 2, 0, 10, QueryOptions())
		wantCanceled(t, err)
	})
	t.Run("TimedepInstant", func(t *testing.T) {
		tn := TimeDependent(g)
		_, err := tn.SkylineAt(cancelled, loc, 3, QueryOptions())
		wantCanceled(t, err)
		_, err = tn.TopKAt(cancelled, loc, agg, 2, 3, QueryOptions())
		wantCanceled(t, err)
	})
}

// Cancelling mid-stream must abort a Seq at the next interrupt poll: the
// stream ends with the context error instead of running to exhaustion.
func TestSeqMidStreamCancellation(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{Nodes: 2_500, Facilities: 500, D: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	net := FromGraph(g)
	loc := RandomQueries(g, 1, 9)[0]

	streamCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	full, err := net.Skyline(ctx, loc)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Facilities) < 2 {
		t.Skip("need a skyline with at least 2 members to cancel between yields")
	}
	var n int
	var last error
	for _, err := range net.SkylineSeq(streamCtx, loc) {
		last = err
		if err != nil {
			break
		}
		n++
		cancel() // cancel after the first confirmed facility
	}
	if n == 0 {
		t.Fatal("stream yielded nothing before cancellation")
	}
	if n >= len(full.Facilities) {
		t.Fatalf("stream ran to exhaustion (%d facilities) despite cancellation", n)
	}
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("stream ended with %v, want context.Canceled", last)
	}
}

// A query cancelled while its page read waits out a latency spike returns
// context.Canceled once that one read is done: a page read is one attempt,
// with no retry sleep after it, and the query's next interrupt poll sees the
// cancellation. Every armed read spikes for half a second. The device is
// disarmed at the cancellation, so the reads left before that poll are fast
// and the wait is bounded by the one spiked read in flight.
func TestExecutorCancelAbortsRetryBackoff(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{Nodes: 400, Facilities: 100, D: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	img, err := storage.BuildMem(g)
	if err != nil {
		t.Fatal(err)
	}
	const spike = 500 * time.Millisecond
	dev := fault.Wrap(img, fault.Options{Seed: 1, LatencyProb: 1, Latency: spike})
	net, err := OpenDeviceOptions(dev, 0.05, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	dev.Arm()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan BatchResponse, 1)
	go func() {
		done <- net.NewExecutor(ExecutorConfig{Workers: 1}).Do(ctx, SkylineRequest(RandomQueries(g, 1, 3)[0]))
	}()
	for dev.Counters().LatencySpikes == 0 {
		select {
		case resp := <-done:
			t.Fatalf("query ended before any device read: %v", resp.Err)
		case <-time.After(time.Millisecond):
		}
	}
	cancelled := time.Now()
	cancel()
	dev.Disarm()
	select {
	case resp := <-done:
		if !errors.Is(resp.Err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", resp.Err)
		}
		if waited := time.Since(cancelled); waited > spike+spike/2 {
			t.Fatalf("query returned %v after cancellation, more than the one read in flight", waited)
		}
		if n := dev.Counters().LatencySpikes; n != 1 {
			t.Fatalf("%d spiked reads, want the one in flight at the cancellation", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query still running 10 s after cancellation")
	}
}
