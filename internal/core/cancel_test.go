package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mcn/internal/gen"
	"mcn/internal/storage"
	"mcn/internal/testsupport/fault"
)

// cancelAt is the device below a buffer pool, counting its page reads and
// calling cancel during the read numbered at.
type cancelAt struct {
	storage.Device
	reads, at atomic.Int64
	cancel    func()
}

func (d *cancelAt) ReadPage(id storage.PageID, buf []byte) error {
	if d.reads.Add(1) == d.at.Load() {
		d.cancel()
	}
	return d.Device.ReadPage(id, buf)
}

// A cancelled query stops reading pages. Every expansion polls the
// interrupt hook before it reads the query edge and before each node it
// expands, so a disk skyline whose context is cancelled during its Nth
// device read returns context.Canceled after at most maxAfterCancel further
// reads, whatever N is. The bound is the rest of the step in flight at the
// cancellation — one expansion's set-up on the query edge, or one node's
// expansion: its adjacency record and the facility records of its arcs, a
// few pages behind this two-frame pool. Every read of a cancelled run
// sleeps, as a slow disk's would, so each read a cancelled query still makes
// is paid for.
func TestCancelledQueryStopsReading(t *testing.T) {
	const maxAfterCancel = 4
	inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 4000, Facilities: 800, Queries: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := storage.BuildMem(inst.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// open returns a 1 % pool over a fresh fault device, counting its reads.
	open := func(t *testing.T) (*storage.Network, *fault.Device, *cancelAt) {
		fd := fault.Wrap(mem, fault.Options{Seed: 1, LatencyProb: 1, Latency: time.Millisecond})
		dev := &cancelAt{Device: fd, cancel: func() {}}
		net, err := storage.OpenOptions(dev, 0.01, storage.PoolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return net, fd, dev
	}
	for _, engine := range []Engine{CEA, LSA} {
		t.Run(engine.String(), func(t *testing.T) {
			for _, loc := range inst.Queries {
				// The whole query's reads, at full speed.
				net, _, dev := open(t)
				start := dev.reads.Load()
				if _, err := Skyline(net, loc, Options{Engine: engine}); err != nil {
					t.Fatal(err)
				}
				full := dev.reads.Load() - start
				for _, n := range []int64{1, 10, 100} {
					if n > full/2 {
						t.Fatalf("%v: the query reads %d pages, too few to cancel it during read %d", loc, full, n)
					}
					net, fd, dev := open(t)
					fd.Arm() // every read from here on sleeps
					ctx, cancel := context.WithCancel(context.Background())
					start := dev.reads.Load()
					dev.at.Store(start + n)
					dev.cancel = cancel
					_, err := Skyline(net, loc, Options{Engine: engine}.BindContext(ctx))
					cancel()
					after := dev.reads.Load() - start - n
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("%v: cancelled during read %d of %d: err = %v, want context.Canceled", loc, n, full, err)
					}
					if after > maxAfterCancel {
						t.Errorf("%v: cancelled during read %d of %d, the query read %d more pages, want at most %d", loc, n, full, after, maxAfterCancel)
					}
				}
			}
		})
	}
}
