// Package fault injects storage read failures deterministically. Its Device
// wraps any storage.Device and, while armed, makes a seeded pseudo-random
// subset of page reads fail: transient errors (classified retryable via
// storage.MarkTransient), latency spikes, bit-flipped page contents, and —
// targeted explicitly rather than randomly — permanently failing or corrupt
// pages. Writes pass through untouched: nothing retries a write, so there is
// no classification to exercise on that side. Every fault decision is a pure
// function of the seed and a per-device read counter, so a schedule replays
// identically for a given seed and read order; per-fault counters report what
// was actually injected.
//
// The wrapper is the test device of the chaos harness
// (internal/testsupport/chaos), of the buffer pool's retry tests and of the
// executor's cancellation test: they wrap a device, open the database or the
// pool on it, then Arm it. Like everything under internal/testsupport, it is
// imported by _test.go files only.
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mcn/internal/storage"
)

// DefaultMaxConsecutive is the Options.MaxConsecutive fallback.
const DefaultMaxConsecutive = 2

// Options configures a Device. Probabilities are in [0, 1] and evaluated
// independently per read, in the order latency → permanent → transient →
// corrupt.
type Options struct {
	// Seed selects the fault schedule; the same seed over the same read
	// sequence injects the same faults.
	Seed uint64
	// ReadTransient is the probability a ReadPage fails with a transient
	// (retryable) error.
	ReadTransient float64
	// ReadCorrupt is the probability a ReadPage returns the page with one
	// deterministically chosen bit flipped (no error — detecting this is the
	// checksum layer's job).
	ReadCorrupt float64
	// LatencyProb is the probability a read sleeps for Latency before
	// proceeding; both must be set for spikes to occur.
	LatencyProb float64
	// Latency is the spike duration.
	Latency time.Duration
	// MaxConsecutive caps successive injected transient/corrupt faults per
	// page: after that many in a row, the next read of the page is forced
	// clean. This guarantees a retry budget of MaxConsecutive re-reads always
	// reaches the data, so transient-only schedules cannot starve a query.
	// Zero selects DefaultMaxConsecutive; explicit permanent faults
	// (FailPage, CorruptPage) ignore the cap.
	MaxConsecutive int
}

// Counters reports the faults a Device has injected since creation (atomic,
// read lock-free).
type Counters struct {
	ReadTransient int64
	ReadCorrupt   int64
	LatencySpikes int64
	// PermanentReads counts reads of pages marked with FailPage.
	PermanentReads int64
}

// Device wraps a storage.Device with deterministic fault injection. It is
// safe for concurrent use (fault decisions are serialised per read by an
// atomic counter; the consecutive-fault ledger is mutex-guarded). A new
// Device starts disarmed: until Arm is called every read passes through
// untouched, so databases can be opened through the wrapper fault-free.
type Device struct {
	dev  storage.Device
	opts Options
	ops  atomic.Uint64
	arm  atomic.Bool

	readTransient  atomic.Int64
	readCorrupt    atomic.Int64
	latencySpikes  atomic.Int64
	permanentReads atomic.Int64

	mu sync.Mutex
	// streak counts consecutive injected transient/corrupt faults per page,
	// enforcing MaxConsecutive.
	streak map[storage.PageID]int
	// failed pages always error permanently; corrupted pages always read
	// with a flipped bit.
	failed  map[storage.PageID]bool
	corrupt map[storage.PageID]bool
}

// Wrap returns a disarmed fault-injecting view of dev.
func Wrap(dev storage.Device, opts Options) *Device {
	if opts.MaxConsecutive <= 0 {
		opts.MaxConsecutive = DefaultMaxConsecutive
	}
	return &Device{
		dev:     dev,
		opts:    opts,
		streak:  make(map[storage.PageID]int),
		failed:  make(map[storage.PageID]bool),
		corrupt: make(map[storage.PageID]bool),
	}
}

// Arm enables fault injection; Disarm suspends it (explicitly failed and
// corrupted pages keep failing — they model damaged media, not load).
func (d *Device) Arm() { d.arm.Store(true) }

// Disarm suspends randomized injection.
func (d *Device) Disarm() { d.arm.Store(false) }

// FailPage marks a page as permanently unreadable: every ReadPage returns a
// non-retryable error until ClearPage.
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
		ReadTransient:  d.readTransient.Load(),
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

// allowInjected consults and updates the per-page consecutive-fault streak;
// it reports whether another injected fault on id is within MaxConsecutive.
func (d *Device) allowInjected(id storage.PageID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.streak[id] >= d.opts.MaxConsecutive {
		delete(d.streak, id)
		return false
	}
	d.streak[id]++
	return true
}

// clearStreak resets a page's consecutive-fault count after a clean read.
func (d *Device) clearStreak(id storage.PageID) {
	d.mu.Lock()
	delete(d.streak, id)
	d.mu.Unlock()
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
	if !d.arm.Load() {
		if err := d.dev.ReadPage(id, buf); err != nil {
			return err
		}
		if corrupted {
			d.flipBit(id, buf)
		}
		return nil
	}
	w := d.draw()
	if d.opts.Latency > 0 && hit(d.opts.LatencyProb, splitmix64(w^1)) {
		d.latencySpikes.Add(1)
		time.Sleep(d.opts.Latency)
	}
	if hit(d.opts.ReadTransient, splitmix64(w^2)) && d.allowInjected(id) {
		d.readTransient.Add(1)
		return storage.MarkTransient(fmt.Errorf("fault: injected transient read error on page %d", id))
	}
	if err := d.dev.ReadPage(id, buf); err != nil {
		return err
	}
	if corrupted {
		d.flipBit(id, buf)
		return nil
	}
	if hit(d.opts.ReadCorrupt, splitmix64(w^3)) && d.allowInjected(id) {
		d.readCorrupt.Add(1)
		i := int(splitmix64(w^4) % uint64(len(buf)*8))
		buf[i/8] ^= 1 << (i % 8)
		return nil
	}
	d.clearStreak(id)
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
