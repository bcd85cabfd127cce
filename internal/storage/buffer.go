package storage

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Stats counts page accesses through a buffer pool. Logical counts every
// request; Physical counts the requests that reached the device. The paper's
// experiments are driven by the physical count (its processing time is
// vastly I/O-dominated, Sec. VI footnote 7).
//
// Concurrent readers of the same cold page share one device read (miss
// coalescing), so Physical counts actual device reads — it can be lower than
// the number of misses observed by callers.
type Stats struct {
	Logical  int64
	Physical int64
}

// HitRate returns the fraction of logical reads served from the pool.
func (s Stats) HitRate() float64 {
	if s.Logical == 0 {
		return 0
	}
	return 1 - float64(s.Physical)/float64(s.Logical)
}

// Sub returns s - o component-wise; useful for per-query deltas.
func (s Stats) Sub(o Stats) Stats {
	return Stats{Logical: s.Logical - o.Logical, Physical: s.Physical - o.Physical}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("logical=%d physical=%d hit=%.1f%%", s.Logical, s.Physical, 100*s.HitRate())
}

// ShardStats is a buffer pool's lifetime counters in the per-partition form
// /stats reports them. The pool is one replacement domain, so ShardStats
// returns one entry. Like Stats it is read lock-free from atomics, so a
// snapshot taken under traffic is approximate but monotone.
type ShardStats struct {
	// Logical counts page requests; Physical the device reads issued.
	Logical  int64 `json:"logical"`
	Physical int64 `json:"physical"`
	// Hits counts requests served from the pool's frames without waiting on
	// the device: Logical − Physical − Coalesced.
	Hits int64 `json:"hits"`
	// Evictions counts frames displaced by the replacement policy.
	Evictions int64 `json:"evictions"`
	// Coalesced counts requests that piggybacked on another query's
	// in-flight read of the same cold page (miss coalescing).
	Coalesced int64 `json:"coalesced"`
}

// Policy selects the pool's replacement algorithm.
type Policy int

const (
	// PolicyClock is the default: a CLOCK (second-chance) sweep that
	// approximates LRU while touching only a reference bit on hits, so a hit
	// takes no lock.
	PolicyClock Policy = iota
	// PolicyLRU is an exact least-recently-used list — the paper's buffer
	// (Sec. VI), which mcnbench and the determinism tests run. It moves list
	// nodes on every hit, so its hits take the pool's lock.
	PolicyLRU
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyClock:
		return "clock"
	case PolicyLRU:
		return "lru"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PoolOptions tunes a BufferPool beyond its capacity.
type PoolOptions struct {
	// Policy selects the replacement algorithm (default clock).
	Policy Policy
	// Retry bounds re-reads of transiently failing pages (see RetryPolicy).
	// The zero value surfaces every device error immediately.
	Retry RetryPolicy
}

// BufferPool is a page cache over a Device: one replacement domain of at
// most capacity frames, so which pages it holds — and the paper's metric,
// Stats().Physical — depends on the access sequence alone, not on the host's
// core count. A capacity of zero disables caching entirely (the paper's 0%
// buffer configuration): every logical read becomes a physical read.
//
// One mutex guards the replacement state and the miss path. A CLOCK hit does
// not take it: a page-indexed table maps every cached page to its frame, and
// a hit pins the frame it finds there with a compare-and-swap (see GetCtx).
//
// The pool is read-only — query processing never mutates the database — and
// safe for concurrent readers under a pin/unpin contract: Get returns the
// page's Frame pinned, its bytes are valid until the caller's Release, and
// the replacement policy never picks a pinned frame. Each frame owns one
// page buffer for the life of the pool; a miss reads the device straight
// into the victim's buffer, so a warmed-up pool allocates nothing per miss.
//
// Misses are coalesced per page (singleflight): when several queries want
// the same cold page at once, one of them reads the device and the rest wait
// for that read, so a popular page costs one physical read per eviction
// rather than one per waiting query. The page being read is mapped in the
// table to the claimed frame it is read into, and that is where the others
// find the read to wait for.
type BufferPool struct {
	dev    Device
	cap    int
	policy Policy
	retry  RetryPolicy
	// sums, when set (OpenWithPool loads it from the database's checksum
	// table), holds the CRC-32C of every covered page, indexed by page id; a
	// freshly read page that disagrees is classified like a transient device
	// error and retried. A page is verified on every read, except on a
	// FileDevice, whose bytes are not rewritten while it is open: there the
	// verified bitset, indexed like sums, marks each page that has passed in
	// this open, and a marked page is not verified again.
	sums     []uint32
	verified []atomic.Uint64
	// table maps each cached page id to its frame, and each page being read
	// to the claimed frame it is read into. Entries change only under mu;
	// CLOCK hits read them without it. It covers the pages the device held
	// when the pool was made (the database is read-only); a page beyond them
	// is read like an uncached one.
	table []atomic.Pointer[Frame]

	logical   atomic.Int64
	physical  atomic.Int64
	evictions atomic.Int64
	coalesced atomic.Int64
	cached    atomic.Int64 // pages in the table, for lock-free Len

	// I/O failure counters (see FailureStats).
	retries       atomic.Int64
	failTransient atomic.Int64
	failPermanent atomic.Int64
	checksumErrs  atomic.Int64

	mu sync.Mutex
	// free holds claimed frames that carry no page (after Drop or a failed
	// read); nframes counts the frames allocated so far, at most cap.
	free    []*Frame
	nframes int

	// The ring of frames, the CLOCK sweep hand, and the LRU use counter.
	slots []*Frame
	hand  int
	tick  uint64
}

// Frame is one page buffer of a pool, handed to readers pinned: Data stays
// valid, and the frame is never chosen for replacement, until Release. A
// reader releases the frame it holds before asking the pool for another
// page, so a single query never holds more than one pin.
type Frame struct {
	id   PageID
	data []byte
	// pins counts the readers using data, or is −1 while the pool has the
	// frame claimed: a victim being refilled, or a spare. Readers pin with
	// tryPin, which refuses a claimed frame, and Release lock-free; the pool
	// claims only unpinned frames (0 → −1) and only under its lock, and a
	// frame stays claimed while it is filled, so no reader can pin a
	// half-read page through the table or a stale pointer.
	pins atomic.Int32
	// transient marks a buffer borrowed from framePool because the pool has
	// no capacity or every frame is pinned; it is never in the table, and
	// the last Release returns it.
	transient bool
	ref       atomic.Bool // clock reference bit, set by lock-free hits
	used      uint64      // LRU: the pool's tick at the last use
	// wait is non-nil while readers are blocked on the read into this frame.
	wait *coalesced
}

// Data returns the page's bytes, read-only and valid until Release.
func (f *Frame) Data() []byte { return f.data }

// Release unpins the frame; the caller must not touch Data afterwards.
func (f *Frame) Release() {
	n := f.pins.Add(-1)
	if n < 0 {
		panic("storage: Frame released more often than pinned")
	}
	if n == 0 && f.transient {
		framePool.Put(f)
	}
}

// tryPin pins f unless the pool has claimed it.
func (f *Frame) tryPin() bool {
	for {
		n := f.pins.Load()
		if n < 0 {
			return false
		}
		if f.pins.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// claim takes an unpinned frame away from readers. Caller holds mu.
func (f *Frame) claim() bool { return f.pins.CompareAndSwap(0, -1) }

// take hands a borrowed buffer to the reader about to fill it with page id.
func (f *Frame) take(id PageID) {
	f.id = id
	f.pins.Store(1)
}

// framePool lends page buffers to reads that no pool frame can hold.
var framePool = sync.Pool{New: func() any {
	return &Frame{data: make([]byte, PageSize), transient: true}
}}

// coalesced is the rendezvous of one in-flight read that other readers wait
// for: the leader fills f/err and closes done while holding the pool lock.
// It is allocated by the first waiter, so an uncontended miss allocates
// nothing.
type coalesced struct {
	done chan struct{}
	n    int // waiters still interested (guarded by the pool lock)
	f    *Frame
	err  error
}

// NewBufferPool returns a pool holding at most capacity pages. At most one
// PoolOptions value may be passed; omitting it selects the clock policy.
func NewBufferPool(dev Device, capacity int, opts ...PoolOptions) *BufferPool {
	var o PoolOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	capacity = max(capacity, 0)
	b := &BufferPool{
		dev:    dev,
		cap:    capacity,
		policy: o.Policy,
		retry:  o.Retry.withDefaults(),
	}
	if capacity > 0 {
		b.table = make([]atomic.Pointer[Frame], dev.NumPages())
	}
	return b
}

// NewBufferPoolFrac returns a pool sized as a fraction of the device's
// current page count, mirroring the paper's "buffer size as a percentage of
// the MCN pages" parameter. A fraction above 1 holds every page; frac must
// not be NaN or negative (OpenOptions refuses both).
func NewBufferPoolFrac(dev Device, frac float64, opts ...PoolOptions) *BufferPool {
	return NewBufferPool(dev, int(min(frac, 1)*float64(dev.NumPages())), opts...)
}

// Capacity returns the pool's total page capacity.
func (b *BufferPool) Capacity() int { return b.cap }

// Stats returns the access counters accumulated since the last ResetStats.
// The counters are read lock-free, so a snapshot taken during concurrent
// traffic is approximate: it may interleave with in-flight reads, though
// each counter — and any sequence of snapshots — remains monotonically
// non-decreasing. Stats never blocks or delays Get callers.
func (b *BufferPool) Stats() Stats {
	// Physical is loaded before logical: every physical increment is
	// preceded by its logical increment in Get, so this order guarantees a
	// snapshot never shows Physical > Logical.
	ph := b.physical.Load()
	return Stats{Logical: b.logical.Load(), Physical: ph}
}

// ShardStats returns the pool's counters as the one entry of a per-partition
// report. Lock-free, like Stats.
func (b *BufferPool) ShardStats() []ShardStats {
	// Load order mirrors Stats: increments happen logical-first, so a
	// snapshot never shows more work than was requested.
	ev := b.evictions.Load()
	co := b.coalesced.Load()
	ph := b.physical.Load()
	lo := b.logical.Load()
	hits := max(lo-ph-co, 0) // a racing snapshot may see reads between counter updates
	return []ShardStats{{Logical: lo, Physical: ph, Hits: hits, Evictions: ev, Coalesced: co}}
}

// ResetStats zeroes the access counters without evicting cached pages. Like
// Stats it is lock-free; resets concurrent with traffic land between
// individual counter updates.
func (b *BufferPool) ResetStats() {
	b.logical.Store(0)
	b.physical.Store(0)
	b.evictions.Store(0)
	b.coalesced.Store(0)
}

// Len returns the number of cached pages (lock-free, approximate during
// concurrent inserts).
func (b *BufferPool) Len() int { return int(b.cached.Load()) }

// Drop evicts every cached page no reader has pinned (a cold restart)
// without touching counters. A pinned frame keeps its page and its buffer —
// its reader is still decoding it — and becomes evictable on Release.
func (b *BufferPool) Drop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	spare := func(f *Frame) bool {
		if !f.claim() {
			return false // pinned, or being read into
		}
		b.table[f.id].Store(nil)
		b.cached.Add(-1)
		b.free = append(b.free, f)
		return true
	}
	b.slots, b.hand = slices.DeleteFunc(b.slots, spare), 0
}

// Get returns page id pinned in a frame; see GetCtx.
func (b *BufferPool) Get(id PageID) (*Frame, error) {
	return b.GetCtx(nil, id)
}

// GetCtx returns the frame holding page id, pinned: the caller reads
// Frame.Data and then calls Frame.Release, before its next Get. It is bound
// to a query context: a ctx that is cancelled (or whose deadline passes)
// aborts retry backoff sleeps immediately and releases coalesced waiters
// without waiting for the leader's read, returning the context's error. A
// nil ctx never cancels. The leader of a coalesced read always runs its
// retry schedule to completion under its own ctx, so one waiter's
// cancellation never fails the read for the others.
func (b *BufferPool) GetCtx(ctx context.Context, id PageID) (*Frame, error) {
	b.logical.Add(1)
	if int(id) >= len(b.table) {
		// Caching disabled (the table is empty): every logical read is a
		// physical read, by definition of the paper's 0% buffer
		// configuration (no coalescing either — the counters must stay
		// equal). Also a page the device did not hold at construction.
		b.physical.Add(1)
		f := framePool.Get().(*Frame)
		f.take(id)
		if err := b.readPage(ctx, id, f.data); err != nil {
			f.Release()
			return nil, err
		}
		return f, nil
	}

	if b.policy == PolicyClock {
		// A hit without the lock: pin the frame the table maps id to, and
		// keep it only if it still holds id — between the load and the pin
		// it may have been claimed, refilled with another page and released.
		if f := b.table[id].Load(); f != nil && f.tryPin() {
			if f.id == id {
				if !f.ref.Load() {
					f.ref.Store(true)
				}
				return f, nil
			}
			f.Release()
		}
	}

	b.mu.Lock()
	if f := b.table[id].Load(); f != nil {
		if f.pins.Load() < 0 {
			// Under the lock a mapped frame is claimed only while another
			// query reads the page into it: share that read — including the
			// outcome of any retries the leader performs.
			return b.join(ctx, f, id)
		}
		b.touch(f, true)
		f.pins.Add(1)
		b.mu.Unlock()
		return f, nil
	}
	// Miss: claim the victim's frame, map the page to it, and read into its
	// buffer outside the lock. The claim keeps the frame from being chosen
	// again, or pinned through the table or a stale pointer, while the read
	// is in flight.
	f := b.acquire()
	if f == nil {
		// Every frame is pinned. The borrowed buffer is pinned for this
		// reader alone and stays out of the table: nobody joins its read.
		f = framePool.Get().(*Frame)
		f.take(id)
	} else {
		f.id = id
		b.touch(f, false) // a newcomer's bit starts clear
		b.table[id].Store(f)
	}
	b.physical.Add(1)
	b.mu.Unlock()

	err := b.readPage(ctx, id, f.data)
	if f.transient {
		if err != nil {
			f.Release() // the last Release returns the buffer
			return nil, err
		}
		return f, nil
	}

	b.mu.Lock()
	w := f.wait
	f.wait = nil
	var waiters int32
	if w != nil && err == nil {
		waiters = int32(w.n) // one pin per waiter, taken on its behalf
	}
	if err != nil {
		// The frame carries no page: a failure never poisons the table.
		b.table[id].Store(nil)
		b.discard(f)
	} else {
		f.pins.Store(1 + waiters)
		b.cached.Add(1)
	}
	if w != nil {
		w.f, w.err = f, err
		close(w.done)
	}
	b.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return f, nil
}

// join waits for the in-flight read led by lead and returns its frame with a
// pin the leader took for this waiter. The caller holds b.mu; join unlocks.
// A cancelled waiter leaves early; the leader's read still completes and
// populates the frame.
func (b *BufferPool) join(ctx context.Context, lead *Frame, id PageID) (*Frame, error) {
	w := lead.wait
	if w == nil {
		w = &coalesced{done: make(chan struct{})}
		lead.wait = w
	}
	w.n++
	b.coalesced.Add(1)
	b.mu.Unlock()
	if ctx != nil {
		select {
		case <-w.done:
		case <-ctx.Done():
			// Withdraw; if the leader finished first it already pinned the
			// frame for this waiter, and that pin goes back.
			b.mu.Lock()
			select {
			case <-w.done:
				b.mu.Unlock()
				if w.err == nil {
					w.f.Release()
				}
			default:
				w.n--
				b.mu.Unlock()
			}
			return nil, fmt.Errorf("storage: page %d: coalesced read abandoned: %w", id, ctx.Err())
		}
	} else {
		<-w.done
	}
	if w.err == nil {
		return w.f, nil
	}
	if isCtxErr(w.err) && (ctx == nil || ctx.Err() == nil) {
		// The leader abandoned the read because *its* context died; this
		// waiter's is still live, so re-issue the read (becoming the new
		// leader) instead of inheriting a failure that says nothing about
		// the device.
		return b.GetCtx(ctx, id)
	}
	return nil, w.err
}

// FailureStats returns the pool's lifetime I/O failure counters (lock-free).
func (b *BufferPool) FailureStats() FailureStats {
	return FailureStats{
		Retries:   b.retries.Load(),
		Transient: b.failTransient.Load(),
		Permanent: b.failPermanent.Load(),
		Checksum:  b.checksumErrs.Load(),
	}
}

// isCtxErr reports whether err stems from context cancellation or deadline
// expiry rather than the device.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// readPage performs one logical device read of page id into data: the raw
// read, checksum verification (see verify), and bounded retry with
// exponential backoff and jitter on transient failures. Classification (see
// errors.go): transient errors and checksum mismatches are retried up to the
// policy's budget; anything else — and a cancelled ctx — surfaces
// immediately. Readers are handed a frame only after a fully successful
// attempt, so a failure can never poison the cache.
func (b *BufferPool) readPage(ctx context.Context, id PageID, data []byte) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = b.dev.ReadPage(id, data)
		if err == nil && id != 0 && int(id) < len(b.sums) {
			err = b.verify(id, data)
		}
		if err == nil {
			return nil
		}
		if !IsTransient(err) {
			b.failPermanent.Add(1)
			return err
		}
		if attempt >= b.retry.MaxRetries {
			b.failTransient.Add(1)
			if b.retry.MaxRetries > 0 {
				return fmt.Errorf("storage: page %d: %d retries exhausted: %w", id, b.retry.MaxRetries, err)
			}
			return err
		}
		b.retries.Add(1)
		if d := b.retry.backoff(attempt + 1); d > 0 {
			if ctx != nil {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return fmt.Errorf("storage: page %d: retry abandoned after %v: %w", id, err, ctx.Err())
				}
			} else {
				time.Sleep(d)
			}
		}
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("storage: page %d: retry abandoned after %v: %w", id, err, ctx.Err())
		}
	}
}

// verify checks a freshly read covered page against its checksum. With a
// verified bitset (a FileDevice), a page that has passed once in this open is
// not checked again, and a page is marked only once it passes, so a corrupt
// page fails on every read.
func (b *BufferPool) verify(id PageID, data []byte) error {
	word, bit := id/64, uint64(1)<<(id%64)
	if b.verified != nil && b.verified[word].Load()&bit != 0 {
		return nil
	}
	if PageChecksum(data) != b.sums[id] {
		b.checksumErrs.Add(1)
		return fmt.Errorf("storage: page %d: %w", id, ErrChecksum)
	}
	if b.verified != nil {
		b.verified[word].Or(bit)
	}
	return nil
}

// touch records a use under the lock and sets the reference bit to ref,
// storing it only if it changes.
func (b *BufferPool) touch(f *Frame, ref bool) {
	b.tick++
	f.used = b.tick
	if f.ref.Load() != ref {
		f.ref.Store(ref)
	}
}

// acquire returns a claimed frame for a new page: a spare frame or a fresh
// one while the pool is below capacity, entering the ring just behind the
// hand, otherwise the policy's victim, taken out of the table. It returns
// nil when every frame is pinned. Caller holds mu.
func (b *BufferPool) acquire() *Frame {
	var f *Frame
	switch n := len(b.free); {
	case n > 0:
		f, b.free = b.free[n-1], b.free[:n-1]
	case b.nframes < b.cap:
		f = &Frame{data: make([]byte, PageSize)}
		f.pins.Store(-1)
		b.nframes++
	case b.policy == PolicyClock:
		return b.evictClock()
	default:
		return b.evictLRU()
	}
	b.slots = append(b.slots, f)
	return f
}

// discard takes a claimed frame that carries no page off the ring and keeps
// it spare. Caller holds mu.
func (b *BufferPool) discard(f *Frame) {
	i := slices.Index(b.slots, f)
	b.slots = slices.Delete(b.slots, i, i+1)
	if i < b.hand {
		b.hand--
	}
	if b.hand >= len(b.slots) {
		b.hand = 0
	}
	b.free = append(b.free, f)
}

// evict removes a claimed victim's page from the table.
func (b *BufferPool) evict(f *Frame) {
	b.evictions.Add(1)
	b.table[f.id].Store(nil)
	b.cached.Add(-1)
}

// evictClock sweeps the hand past pinned and claimed frames and referenced
// ones (clearing their bit — the second chance) until it claims a victim,
// which keeps its slot for the new page: newcomers enter with the bit clear
// just behind the hand, so they survive a full rotation before becoming
// eviction candidates. Two rotations without a victim mean every frame is
// pinned.
func (b *BufferPool) evictClock() *Frame {
	for n := 2 * len(b.slots); n > 0; n-- {
		f := b.slots[b.hand]
		b.hand++
		if b.hand == len(b.slots) {
			b.hand = 0
		}
		switch {
		case f.pins.Load() != 0:
		case f.ref.Load():
			f.ref.Store(false)
		case f.claim(): // fails if a lock-free hit pinned it just now
			b.evict(f)
			return f
		}
	}
	return nil
}

// evictLRU claims the unpinned frame whose last use is oldest. LRU hits
// take the lock, so no frame it sees unpinned can be pinned before the claim.
func (b *BufferPool) evictLRU() *Frame {
	var victim *Frame
	for _, f := range b.slots {
		if f.pins.Load() == 0 && (victim == nil || f.used < victim.used) {
			victim = f
		}
	}
	if victim == nil || !victim.claim() {
		return nil
	}
	b.evict(victim)
	return victim
}
