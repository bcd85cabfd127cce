package storage

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
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

// ShardStats is one buffer-pool shard's lifetime counters, for diagnosing
// shard skew (a hot page concentrating traffic on one lock) in production
// workloads. Like Stats it is read lock-free from per-shard atomics, so a
// snapshot taken under traffic is approximate but monotone.
type ShardStats struct {
	// Logical counts page requests routed to this shard; Physical the device
	// reads it issued.
	Logical  int64 `json:"logical"`
	Physical int64 `json:"physical"`
	// Hits counts requests served from the shard's frames without waiting on
	// the device: Logical − Physical − Coalesced.
	Hits int64 `json:"hits"`
	// Evictions counts frames displaced by the replacement policy.
	Evictions int64 `json:"evictions"`
	// Coalesced counts requests that piggybacked on another query's
	// in-flight read of the same cold page (miss coalescing).
	Coalesced int64 `json:"coalesced"`
}

// Policy selects a shard's replacement algorithm.
type Policy int

const (
	// PolicyClock is the default: a CLOCK (second-chance) sweep that
	// approximates LRU while touching only a reference bit on hits.
	PolicyClock Policy = iota
	// PolicyLRU is an exact least-recently-used list per shard — the pre-
	// sharding pool's behaviour when combined with Shards: 1. It moves list
	// nodes on every hit, so it is the more contention-prone choice.
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

// ParsePolicy converts "clock" or "lru" to a Policy (command-line flags).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "clock", "":
		return PolicyClock, nil
	case "lru":
		return PolicyLRU, nil
	default:
		return 0, fmt.Errorf("storage: unknown buffer policy %q (want clock or lru)", s)
	}
}

// PoolOptions tunes a BufferPool beyond its capacity.
type PoolOptions struct {
	// Shards is the number of independently locked cache partitions, rounded
	// down to a power of two and clamped so every shard owns at least one
	// frame. Zero selects a default based on GOMAXPROCS. One shard with
	// PolicyLRU reproduces the classic single-mutex LRU pool.
	Shards int
	// Policy selects the per-shard replacement algorithm (default clock).
	Policy Policy
	// Retry bounds re-reads of transiently failing pages (see RetryPolicy).
	// The zero value surfaces every device error immediately.
	Retry RetryPolicy
}

// BufferPool is a sharded page cache over a Device. Pages are distributed
// across power-of-two shards by a hash of their id; each shard has its own
// lock, frame table and replacement state, so concurrent queries contend
// only when they touch the same shard. A capacity of zero disables caching
// entirely (the paper's 0% buffer configuration): every logical read becomes
// a physical read.
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
// rather than one per waiting query.
type BufferPool struct {
	dev    Device
	cap    int
	policy Policy
	retry  RetryPolicy
	// sums, when set (OpenWithPool loads it from the database's checksum
	// table), holds the CRC-32C of every covered page, indexed by page id; a
	// freshly read page that disagrees is classified like a transient device
	// error and retried.
	sums   []uint32
	shift  uint // shard index = hash(id) >> shift
	shards []poolShard

	// I/O failure counters (see FailureStats); pool-global because failures
	// are rare enough that shard-striping them would buy nothing.
	retries       atomic.Int64
	failTransient atomic.Int64
	failPermanent atomic.Int64
	checksumErrs  atomic.Int64
}

// poolShard is one cache partition. Its counters are updated with atomics
// and read lock-free; everything below mu is guarded by mu.
type poolShard struct {
	logical   atomic.Int64
	physical  atomic.Int64
	evictions atomic.Int64
	coalesced atomic.Int64
	cached    atomic.Int64 // len(frames), mirrored for lock-free Len

	mu     sync.Mutex
	cap    int
	policy Policy
	// frames maps the cached pages to their frames; inflight the pages being
	// read to the frame their leader is filling. Every frame on the clock
	// ring or LRU list is either cached or pinned by the leader reading into
	// it.
	frames   map[PageID]*Frame
	inflight map[PageID]*Frame
	// free holds frames that carry no page (after Drop or a failed read);
	// nframes counts the frames allocated so far, at most cap.
	free    []*Frame
	nframes int

	// Clock state: a ring of frames and the sweep hand.
	slots []*Frame
	hand  int

	// LRU state: head is most recently used.
	head, tail *Frame

	// pad keeps neighbouring shards off one cache line, so shard counters
	// updated by different cores do not false-share.
	_ [64]byte
}

// Frame is one page buffer of a pool, handed to readers pinned: Data stays
// valid, and the frame is never chosen for replacement, until Release. A
// reader releases the frame it holds before asking the pool for another
// page, so a single query never holds more than one pin.
type Frame struct {
	id   PageID
	data []byte
	// pins counts the readers using data. It is raised only under the owning
	// shard's lock (a hit, a leader taking the frame, a leader pinning for
	// its waiters) and dropped lock-free by Release, so a frame the victim
	// search sees unpinned under that lock has no reader left.
	pins atomic.Int32
	// transient marks a buffer borrowed from framePool because the pool has
	// no capacity or every frame of the shard was pinned; the last Release
	// returns it.
	transient  bool
	ref        bool // clock reference bit
	prev, next *Frame
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

// take hands an unpinned frame to the reader about to fill it with page id.
func (f *Frame) take(id PageID) {
	f.id, f.ref = id, false
	f.pins.Store(1)
}

// framePool lends page buffers to reads that no shard frame can hold.
var framePool = sync.Pool{New: func() any {
	return &Frame{data: make([]byte, PageSize), transient: true}
}}

// coalesced is the rendezvous of one in-flight read that other readers wait
// for: the leader fills f/err and closes done while holding the shard lock.
// It is allocated by the first waiter, so an uncontended miss allocates
// nothing.
type coalesced struct {
	done chan struct{}
	n    int // waiters still interested (guarded by the shard lock)
	f    *Frame
	err  error
}

// defaultShards picks the shard count for PoolOptions{Shards: 0}: enough
// partitions that GOMAXPROCS concurrent queries rarely collide, capped to
// keep per-shard capacities meaningful.
func defaultShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n > 64 {
		n = 64
	}
	return n
}

// floorPow2 returns the largest power of two <= n (n >= 1).
func floorPow2(n int) int { return 1 << (bits.Len(uint(n)) - 1) }

// NewBufferPool returns a pool holding at most capacity pages. At most one
// PoolOptions value may be passed; omitting it selects the clock policy with
// a GOMAXPROCS-derived shard count.
func NewBufferPool(dev Device, capacity int, opts ...PoolOptions) *BufferPool {
	var o PoolOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if capacity < 0 {
		capacity = 0
	}
	n := o.Shards
	if n <= 0 {
		n = defaultShards()
	}
	n = floorPow2(n)
	if capacity > 0 && n > capacity {
		n = floorPow2(capacity)
	}
	if capacity == 0 {
		n = 1
	}
	b := &BufferPool{
		dev:    dev,
		cap:    capacity,
		policy: o.Policy,
		retry:  o.Retry.withDefaults(),
		shift:  uint(32 - bits.Len(uint(n-1))),
		shards: make([]poolShard, n),
	}
	if n == 1 {
		b.shift = 32
	}
	for i := range b.shards {
		s := &b.shards[i]
		// Distribute capacity as evenly as possible; the first capacity%n
		// shards take the remainder.
		s.cap = capacity / n
		if i < capacity%n {
			s.cap++
		}
		s.policy = o.Policy
		s.frames = make(map[PageID]*Frame, s.cap)
		s.inflight = make(map[PageID]*Frame)
	}
	return b
}

// NewBufferPoolFrac returns a pool sized as a fraction of the device's
// current page count, mirroring the paper's "buffer size as a percentage of
// the MCN pages" parameter.
func NewBufferPoolFrac(dev Device, frac float64, opts ...PoolOptions) *BufferPool {
	return NewBufferPool(dev, int(frac*float64(dev.NumPages())), opts...)
}

// shard maps a page id to its partition with a Fibonacci hash, so the
// sequential page numbers of one file extent spread across shards.
func (b *BufferPool) shard(id PageID) *poolShard {
	if b.shift >= 32 {
		return &b.shards[0]
	}
	return &b.shards[(uint32(id)*2654435761)>>b.shift]
}

// Capacity returns the pool's total page capacity.
func (b *BufferPool) Capacity() int { return b.cap }

// Shards returns the number of cache partitions.
func (b *BufferPool) Shards() int { return len(b.shards) }

// Policy returns the replacement policy.
func (b *BufferPool) Policy() Policy { return b.policy }

// Stats returns the access counters accumulated since the last ResetStats.
// The counters are read lock-free (per-shard atomics summed one shard at a
// time), so a snapshot taken during concurrent traffic is approximate: it
// may interleave with in-flight reads, though each counter — and any
// sequence of snapshots — remains monotonically non-decreasing. Stats never
// blocks or delays Get callers.
func (b *BufferPool) Stats() Stats {
	var s Stats
	for i := range b.shards {
		// Physical is loaded before logical: every physical increment is
		// preceded by its logical increment in Get, so this order guarantees
		// a snapshot never shows Physical > Logical.
		s.Physical += b.shards[i].physical.Load()
		s.Logical += b.shards[i].logical.Load()
	}
	return s
}

// ShardStats returns one entry per cache partition, in shard order. The
// per-shard counters expose skew that the aggregate Stats hides: a popular
// page shows up as one shard carrying a disproportionate share of Logical
// (and, under churn, Evictions). Lock-free, like Stats.
func (b *BufferPool) ShardStats() []ShardStats {
	out := make([]ShardStats, len(b.shards))
	for i := range b.shards {
		s := &b.shards[i]
		// Load order mirrors Stats: increments happen logical-first, so a
		// snapshot never shows more work than was requested.
		ev := s.evictions.Load()
		co := s.coalesced.Load()
		ph := s.physical.Load()
		lo := s.logical.Load()
		hits := lo - ph - co
		if hits < 0 {
			hits = 0 // racing snapshot: reads landed between counter updates
		}
		out[i] = ShardStats{Logical: lo, Physical: ph, Hits: hits, Evictions: ev, Coalesced: co}
	}
	return out
}

// ResetStats zeroes the access counters without evicting cached pages. Like
// Stats it is lock-free; resets concurrent with traffic land between
// individual counter updates.
func (b *BufferPool) ResetStats() {
	for i := range b.shards {
		b.shards[i].logical.Store(0)
		b.shards[i].physical.Store(0)
		b.shards[i].evictions.Store(0)
		b.shards[i].coalesced.Store(0)
	}
}

// Len returns the number of cached pages (lock-free, approximate during
// concurrent inserts).
func (b *BufferPool) Len() int {
	var n int64
	for i := range b.shards {
		n += b.shards[i].cached.Load()
	}
	return int(n)
}

// Drop evicts every cached page no reader has pinned (a cold restart)
// without touching counters. A pinned frame keeps its page and its buffer —
// its reader is still decoding it — and becomes evictable on Release.
func (b *BufferPool) Drop() {
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		spare := func(f *Frame) bool {
			if f.pins.Load() > 0 {
				return false
			}
			delete(s.frames, f.id)
			s.free = append(s.free, f)
			return true
		}
		if s.policy == PolicyClock {
			s.slots, s.hand = slices.DeleteFunc(s.slots, spare), 0
		} else {
			for f := s.head; f != nil; {
				next := f.next
				if spare(f) {
					s.unlink(f)
				}
				f = next
			}
		}
		s.cached.Store(int64(len(s.frames)))
		s.mu.Unlock()
	}
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
	s := b.shard(id)
	s.logical.Add(1)
	if b.cap == 0 {
		// Caching disabled: every logical read is a physical read, by
		// definition of the paper's 0% buffer configuration (no coalescing
		// either — the counters must stay equal).
		s.physical.Add(1)
		f := framePool.Get().(*Frame)
		f.take(id)
		if err := b.readPage(ctx, id, f.data); err != nil {
			f.Release()
			return nil, err
		}
		return f, nil
	}

	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		s.touch(f)
		f.pins.Add(1)
		s.mu.Unlock()
		return f, nil
	}
	if lead, ok := s.inflight[id]; ok {
		// Another query is already reading this page; share its read —
		// including the outcome of any retries the leader performs.
		return b.join(ctx, s, lead, id)
	}
	// Miss: take the victim's frame out of the frame table now and read
	// into its buffer outside the lock. The leader's pin keeps the frame
	// from being chosen again while the read is in flight.
	f := s.acquire()
	if f == nil {
		f = framePool.Get().(*Frame) // every frame of the shard is pinned
	}
	f.take(id)
	s.inflight[id] = f
	s.physical.Add(1)
	s.mu.Unlock()

	err := b.readPage(ctx, id, f.data)

	s.mu.Lock()
	w := f.wait
	f.wait = nil
	delete(s.inflight, id)
	switch {
	case f.transient:
		// Nothing to install; the last Release returns the buffer.
		if err != nil {
			f.Release()
		}
	case err != nil:
		// The frame carries no page: a failure never poisons the table.
		s.discard(f)
	default:
		s.frames[id] = f
		s.cached.Store(int64(len(s.frames)))
	}
	if w != nil {
		if err == nil {
			f.pins.Add(int32(w.n)) // one pin per waiter, taken on its behalf
		}
		w.f, w.err = f, err
		close(w.done)
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return f, nil
}

// join waits for the in-flight read led by lead and returns its frame with a
// pin the leader took for this waiter. The caller holds s.mu; join unlocks.
// A cancelled waiter leaves early; the leader's read still completes and
// populates the frame.
func (b *BufferPool) join(ctx context.Context, s *poolShard, lead *Frame, id PageID) (*Frame, error) {
	w := lead.wait
	if w == nil {
		w = &coalesced{done: make(chan struct{})}
		lead.wait = w
	}
	w.n++
	s.coalesced.Add(1)
	s.mu.Unlock()
	if ctx != nil {
		select {
		case <-w.done:
		case <-ctx.Done():
			// Withdraw; if the leader finished first it already pinned the
			// frame for this waiter, and that pin goes back.
			s.mu.Lock()
			select {
			case <-w.done:
				s.mu.Unlock()
				if w.err == nil {
					w.f.Release()
				}
			default:
				w.n--
				s.mu.Unlock()
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
// read, checksum verification, and bounded retry with exponential
// backoff and jitter on transient failures. Classification (see errors.go):
// transient errors and checksum mismatches are retried up to the policy's
// budget; anything else — and a cancelled ctx — surfaces immediately. A frame
// enters the frame table only after a fully successful attempt, so a failure
// can never poison the cache.
func (b *BufferPool) readPage(ctx context.Context, id PageID, data []byte) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = b.dev.ReadPage(id, data)
		if err == nil && id != 0 && int(id) < len(b.sums) && PageChecksum(data) != b.sums[id] {
			b.checksumErrs.Add(1)
			err = fmt.Errorf("storage: page %d: %w", id, ErrChecksum)
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

// touch records a hit under the shard lock.
func (s *poolShard) touch(f *Frame) {
	if s.policy == PolicyClock {
		f.ref = true
		return
	}
	s.moveToFront(f)
}

// acquire returns an unpinned frame for a new page, placed where the policy
// puts a newcomer: a spare frame, a fresh one while the shard is below
// capacity, otherwise the policy's victim, taken out of the frame table. It
// returns nil when every frame is pinned. Caller holds mu.
func (s *poolShard) acquire() *Frame {
	var f *Frame
	switch n := len(s.free); {
	case n > 0:
		f, s.free = s.free[n-1], s.free[:n-1]
	case s.nframes < s.cap:
		f = &Frame{data: make([]byte, PageSize)}
		s.nframes++
	case s.policy == PolicyClock:
		return s.evictClock()
	default:
		return s.evictLRU()
	}
	if s.policy == PolicyClock {
		s.slots = append(s.slots, f)
	} else {
		s.pushFront(f)
	}
	return f
}

// discard takes a frame that carries no page off the ring or list and keeps
// it spare. Caller holds mu.
func (s *poolShard) discard(f *Frame) {
	if s.policy == PolicyClock {
		i := slices.Index(s.slots, f)
		s.slots = slices.Delete(s.slots, i, i+1)
		if i < s.hand {
			s.hand--
		}
		if s.hand >= len(s.slots) {
			s.hand = 0
		}
	} else {
		s.unlink(f)
	}
	f.pins.Store(0)
	s.free = append(s.free, f)
}

// evict removes the victim's page from the frame table.
func (s *poolShard) evict(f *Frame) {
	s.evictions.Add(1)
	delete(s.frames, f.id)
	s.cached.Store(int64(len(s.frames)))
}

// evictClock sweeps the hand past pinned frames and referenced ones
// (clearing their bit — the second chance) until it finds a victim, which
// keeps its slot for the new page: newcomers enter with the bit clear just
// behind the hand, so they survive a full rotation before becoming eviction
// candidates. Two rotations without a victim mean every frame is pinned.
func (s *poolShard) evictClock() *Frame {
	for n := 2 * len(s.slots); n > 0; n-- {
		f := s.slots[s.hand]
		s.hand++
		if s.hand == len(s.slots) {
			s.hand = 0
		}
		switch {
		case f.pins.Load() > 0:
		case f.ref:
			f.ref = false
		default:
			s.evict(f)
			return f
		}
	}
	return nil
}

// evictLRU takes the least recently used unpinned frame and moves it to the
// front for the new page.
func (s *poolShard) evictLRU() *Frame {
	for f := s.tail; f != nil; f = f.prev {
		if f.pins.Load() == 0 {
			s.evict(f)
			s.moveToFront(f)
			return f
		}
	}
	return nil
}

func (s *poolShard) pushFront(f *Frame) {
	f.prev = nil
	f.next = s.head
	if s.head != nil {
		s.head.prev = f
	}
	s.head = f
	if s.tail == nil {
		s.tail = f
	}
}

func (s *poolShard) unlink(f *Frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		s.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		s.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

func (s *poolShard) moveToFront(f *Frame) {
	if s.head != f {
		s.unlink(f)
		s.pushFront(f)
	}
}
