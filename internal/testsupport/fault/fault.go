// Package fault injects storage read failures deterministically. Its Device
// wraps any storage.Device and, while armed, disturbs a seeded pseudo-random
// subset of page reads: latency spikes and bit-flipped page contents; and —
// targeted explicitly rather than randomly — it makes pages permanently
// unreadable or corrupt. Writes pass through untouched: queries never write,
// so there is no failure to exercise on that side. Every fault decision is a
// pure function of the seed and a per-device read counter, so a schedule
// replays identically for a given seed and read order; per-fault counters
// report what was actually injected.
//
// The wrapper is the test device of the chaos harness
// (internal/testsupport/chaos), of the serving tier's storage-fault test and
// of the executor's cancellation test: they wrap a device, open the database
// or the pool on it, then Arm it or mark pages. Like everything under
// internal/testsupport, it is imported by _test.go files only.
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mcn/internal/storage"
)

// Options configures a Device. Probabilities are in [0, 1] and evaluated
// independently per read, in the order latency → permanent → corrupt.
type Options struct {
	// Seed selects the fault schedule; the same seed over the same read
	// sequence injects the same faults.
	Seed uint64
	// ReadCorrupt is the probability a ReadPage returns the page with one
	// deterministically chosen bit flipped (no error — detecting this is the
	// checksum layer's job).
	ReadCorrupt float64
	// LatencyProb is the probability a read sleeps for Latency before
	// proceeding; both must be set for spikes to occur.
	LatencyProb float64
	// Latency is the spike duration.
	Latency time.Duration
}

// Counters reports the faults a Device has injected since creation (atomic,
// read lock-free).
type Counters struct {
	ReadCorrupt   int64
	LatencySpikes int64
	// PermanentReads counts reads of pages marked with FailPage.
	PermanentReads int64
}

// Device wraps a storage.Device with deterministic fault injection. It is
// safe for concurrent use (fault decisions are serialised per read by an
// atomic counter; the page marks are mutex-guarded). A new
// Device starts disarmed: until Arm is called every read passes through
// untouched, so databases can be opened through the wrapper fault-free.
type Device struct {
	dev  storage.Device
	opts Options
	ops  atomic.Uint64
	arm  atomic.Bool

	readCorrupt    atomic.Int64
	latencySpikes  atomic.Int64
	permanentReads atomic.Int64

	mu sync.Mutex
	// failed pages always error permanently; corrupted pages always read
	// with a flipped bit.
	failed  map[storage.PageID]bool
	corrupt map[storage.PageID]bool
}

// Wrap returns a disarmed fault-injecting view of dev.
func Wrap(dev storage.Device, opts Options) *Device {
	return &Device{
		dev:     dev,
		opts:    opts,
		failed:  make(map[storage.PageID]bool),
		corrupt: make(map[storage.PageID]bool),
	}
}

// Arm enables fault injection; Disarm suspends it (explicitly failed and
// corrupted pages keep failing — they model damaged media, not load).
func (d *Device) Arm() { d.arm.Store(true) }

// Disarm suspends randomized injection.
func (d *Device) Disarm() { d.arm.Store(false) }

// FailPage marks a page as permanently unreadable: every ReadPage returns an
// error until ClearPage.
func (d *Device) FailPage(id storage.PageID) {
	d.mu.Lock()
	d.failed[id] = true
	d.mu.Unlock()
}

// CorruptPage marks a page as permanently corrupt: every ReadPage returns its
// content with one bit flipped (deterministically chosen from the seed), so
// only a checksum layer can tell. ClearPage undoes it.
func (d *Device) CorruptPage(id storage.PageID) {
	d.mu.Lock()
	d.corrupt[id] = true
	d.mu.Unlock()
}

// ClearPage removes a page's permanent fail/corrupt marks.
func (d *Device) ClearPage(id storage.PageID) {
	d.mu.Lock()
	delete(d.failed, id)
	delete(d.corrupt, id)
	d.mu.Unlock()
}

// Counters returns the injected-fault counters.
func (d *Device) Counters() Counters {
	return Counters{
		ReadCorrupt:    d.readCorrupt.Load(),
		LatencySpikes:  d.latencySpikes.Load(),
		PermanentReads: d.permanentReads.Load(),
	}
}

// splitmix64 is the SplitMix64 finalizer: a bijective scrambler giving every
// read an independent-looking 64-bit draw from seed ^ counter.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// draw returns this read's pseudo-random word.
func (d *Device) draw() uint64 {
	return splitmix64(d.opts.Seed ^ d.ops.Add(1))
}

// hit maps a probability and a draw-derived word to a fault decision.
func hit(p float64, w uint64) bool {
	if p <= 0 {
		return false
	}
	// Top 53 bits → uniform float in [0, 1).
	return float64(w>>11)/(1<<53) < p
}

// ReadPage implements storage.Device.
func (d *Device) ReadPage(id storage.PageID, buf []byte) error {
	d.mu.Lock()
	failed, corrupted := d.failed[id], d.corrupt[id]
	d.mu.Unlock()
	if failed {
		d.permanentReads.Add(1)
		return fmt.Errorf("fault: page %d permanently unreadable", id)
	}
	armed := d.arm.Load()
	var w uint64
	if armed {
		w = d.draw()
		if d.opts.Latency > 0 && hit(d.opts.LatencyProb, splitmix64(w^1)) {
			d.latencySpikes.Add(1)
			time.Sleep(d.opts.Latency)
		}
	}
	if err := d.dev.ReadPage(id, buf); err != nil {
		return err
	}
	switch {
	case corrupted:
		d.flipBit(id, buf)
	case armed && hit(d.opts.ReadCorrupt, splitmix64(w^3)):
		d.readCorrupt.Add(1)
		i := int(splitmix64(w^4) % uint64(len(buf)*8))
		buf[i/8] ^= 1 << (i % 8)
	}
	return nil
}

// flipBit applies a page's permanent corruption: the flipped bit depends only
// on the seed and page id, so every read sees the same damage.
func (d *Device) flipBit(id storage.PageID, buf []byte) {
	i := int(splitmix64(d.opts.Seed^0xC0DE^uint64(id)) % uint64(len(buf)*8))
	buf[i/8] ^= 1 << (i % 8)
}

// WritePage implements storage.Device; writes are never faulted.
func (d *Device) WritePage(id storage.PageID, buf []byte) error { return d.dev.WritePage(id, buf) }

// Alloc implements storage.Device.
func (d *Device) Alloc() (storage.PageID, error) { return d.dev.Alloc() }

// NumPages implements storage.Device.
func (d *Device) NumPages() int { return d.dev.NumPages() }

// Close implements storage.Device.
func (d *Device) Close() error { return d.dev.Close() }
