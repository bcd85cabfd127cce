package storage

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// Stats counts page accesses through a buffer pool. Logical counts every
// request; Physical counts the requests that reached the device. The paper's
// experiments are driven by the physical count (its processing time is
// vastly I/O-dominated, Sec. VI footnote 7).
//
// Concurrent misses of the same cold page cost one device read: the pool
// serves misses one at a time, and a reader that waited for another's miss
// of its page finds it cached and hits.
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
	// Hits counts requests served without a device read: Logical − Physical.
	Hits int64 `json:"hits"`
	// Evictions counts pages displaced by the replacement policy.
	Evictions int64 `json:"evictions"`
}

// Policy selects the pool's replacement algorithm.
type Policy int

const (
	// PolicyClock is the default: a CLOCK (second-chance) sweep that
	// approximates LRU while touching only a reference bit on hits, so a hit
	// takes no lock.
	PolicyClock Policy = iota
	// PolicyLRU is exact least-recently-used replacement — the paper's
	// buffer (Sec. VI), which mcnbench and the determinism tests run. Every
	// use stamps the page with a tick under the pool's lock, so its hits take
	// that lock, and a miss scans every cached page for the oldest stamp.
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
}

// BufferPool counts and replaces the pages of a Device: one replacement
// domain of at most capacity pages, so which pages it holds — and the
// paper's metric, Stats().Physical — depends on the access sequence alone,
// not on the host's core count. A capacity of zero disables caching
// entirely (the paper's 0% buffer configuration): every logical read
// becomes a physical read.
//
// The pool keeps no page bytes of its own. A MemDevice lends its own pages
// and a mapped FileDevice slices of its mapping, so a miss copies nothing.
// Any other Device is a wrapper, read with ReadPage into a fresh buffer per
// miss, which the garbage collector keeps alive for any reader still
// holding it. Either way the bytes Get returns stay valid, whatever the pool
// evicts later, until the device is closed: readers take no pins and give
// nothing back.
//
// A CLOCK hit takes no lock: a page-indexed table maps every cached page to
// its bytes, and a hit loads its entry and sets the page's reference bit. A
// miss is one critical section under the pool's mutex: pick the victim, map
// the page, count the physical read, and verify or touch the page. A
// concurrent miss of the same page waits for that lock and then hits, so a
// popular page costs one physical read per eviction, not one per reader.
type BufferPool struct {
	dev    Device
	cap    int
	policy Policy
	// lend, set for a MemDevice and a mapped FileDevice, returns the
	// device's own bytes of a page instead of a copy.
	lend func(PageID) (*[PageSize]byte, error)
	// sums, when set (OpenWithPool loads it from the database's checksum
	// table), holds the CRC-32C of every covered page, indexed by page id; a
	// freshly mapped page that disagrees fails the read with ErrChecksum. A
	// page is verified on every miss, except on a FileDevice, whose bytes
	// are not rewritten while it is open: there the verified bitset, indexed
	// like sums, marks each page that has passed in this open, and a marked
	// page is only touched.
	sums     []uint32
	verified []atomic.Uint64
	// table maps each cached page id to its bytes. Entries change only under
	// mu; CLOCK hits read them without it. It covers the pages the device
	// held when the pool was made (the database is read-only); a page beyond
	// them is read like an uncached one.
	table []atomic.Pointer[[PageSize]byte]
	// ref holds each page's CLOCK reference bit, set by lock-free hits, and
	// used each page's LRU stamp, the pool's tick at its last use (under
	// mu). Both are indexed like table; only the policy's own is allocated.
	ref  []atomic.Bool
	used []uint64

	logical   atomic.Int64
	physical  atomic.Int64
	evictions atomic.Int64

	// I/O failure counters (see FailureStats).
	failPermanent atomic.Int64
	checksumErrs  atomic.Int64

	mu sync.Mutex
	// ring holds the cached pages, at most cap, in CLOCK order; hand is the
	// sweep's position and tick the LRU use counter.
	ring []PageID
	hand int
	tick uint64
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
	}
	switch d := dev.(type) {
	case *MemDevice:
		b.lend = d.lend
	case *FileDevice:
		if d.mapped {
			b.lend = d.lend
		}
	}
	if capacity > 0 {
		n := dev.NumPages()
		b.table = make([]atomic.Pointer[[PageSize]byte], n)
		if b.policy == PolicyClock {
			b.ref = make([]atomic.Bool, n)
		} else {
			b.used = make([]uint64, n)
		}
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
	ev := b.evictions.Load()
	s := b.Stats()
	hits := max(s.Logical-s.Physical, 0) // a snapshot racing ResetStats may see physical reads ahead
	return []ShardStats{{Logical: s.Logical, Physical: s.Physical, Hits: hits, Evictions: ev}}
}

// ResetStats zeroes the access counters without evicting cached pages. Like
// Stats it is lock-free; resets concurrent with traffic land between
// individual counter updates.
func (b *BufferPool) ResetStats() {
	b.logical.Store(0)
	b.physical.Store(0)
	b.evictions.Store(0)
}

// Get returns the bytes of page id, read-only. They stay valid until the
// device is closed; a caller that may race Close holds the device open
// (Network does so around every record fetch). A miss is one device read,
// made under the pool's lock, so a caller waits at most for its own read
// and the misses queued before it.
func (b *BufferPool) Get(id PageID) ([]byte, error) {
	b.logical.Add(1)
	if int(id) >= len(b.table) {
		// Caching disabled (the table is empty): every logical read is a
		// physical read, by definition of the paper's 0% buffer
		// configuration. Also a page the device did not hold at
		// construction.
		b.physical.Add(1)
		p, err := b.load(id)
		if err != nil {
			return nil, err
		}
		return p[:], nil
	}

	if b.policy == PolicyClock {
		if p := b.table[id].Load(); p != nil {
			if r := &b.ref[id]; !r.Load() {
				r.Store(true)
			}
			return p[:], nil
		}
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	if p := b.table[id].Load(); p != nil {
		b.use(id, true)
		return p[:], nil
	}
	i := b.victim()
	b.ring[i] = id
	b.use(id, false) // a newcomer's bit starts clear
	b.physical.Add(1)
	// A wrapper's ReadPage runs under the lock too: that is what lets a
	// concurrent miss of this page wait and hit, with no rendezvous. No
	// device calls back into its pool.
	p, err := b.load(id)
	if err != nil {
		// A failure never poisons the table: the page leaves the ring.
		b.unring(i)
		return nil, err
	}
	b.table[id].Store(p)
	return p[:], nil
}

// FailureStats returns the pool's lifetime I/O failure counters (lock-free).
func (b *BufferPool) FailureStats() FailureStats {
	return FailureStats{
		Permanent: b.failPermanent.Load(),
		Checksum:  b.checksumErrs.Load(),
	}
}

// load maps page id with one device read — the device's own bytes, or a
// fresh copy from a wrapper — and checks it (see check). A failure is
// counted and surfaced once, as a fault: ErrChecksum, a fault in the
// mapping, or the device's own error, prefixed with the page id unless it
// is already a fault (this package's devices).
func (b *BufferPool) load(id PageID) (*[PageSize]byte, error) {
	var p *[PageSize]byte
	var err error
	if b.lend != nil {
		p, err = b.lend(id)
	} else {
		p = new([PageSize]byte)
		if err = b.dev.ReadPage(id, p[:]); err != nil && !IsFault(err) {
			err = faultf("page %d: %w", id, err)
		}
	}
	if err != nil {
		b.failPermanent.Add(1)
		return nil, err
	}
	return p, b.check(id, p)
}

// check verifies a freshly mapped page against its checksum, or touches
// it: a page the checksum table does not cover, or a FileDevice's page
// that has passed in this open and is not verified again. A page is marked
// only once it passes, so a corrupt page fails on every miss. Both run with
// faults turned into panics, so that touching a mapped page the file no
// longer backs (truncated behind the handle) or the medium cannot deliver
// fails the read as a short read would, with io.ErrUnexpectedEOF.
func (b *BufferPool) check(id PageID, p *[PageSize]byte) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			err = mappedFault(r, fmt.Sprintf("read page %d", id))
			b.failPermanent.Add(1)
		}
	}()
	word, bit := id/64, uint64(1)<<(id%64)
	if id == 0 || int(id) >= len(b.sums) || b.verified != nil && b.verified[word].Load()&bit != 0 {
		touch(p)
		return nil
	}
	if PageChecksum(p[:]) != b.sums[id] {
		b.checksumErrs.Add(1)
		return faultf("page %d: %w", id, ErrChecksum)
	}
	if b.verified != nil {
		b.verified[word].Or(bit)
	}
	return nil
}

// touch reads one byte of p, so that a fault in the page happens here. It
// is not inlined, so the read cannot be dropped as unused.
//
//go:noinline
func touch(p *[PageSize]byte) byte { return p[0] }

// use records a use of the cached page id under the lock: an LRU stamp, or
// the CLOCK reference bit set to ref, stored only if it changes.
func (b *BufferPool) use(id PageID, ref bool) {
	if b.policy == PolicyLRU {
		b.tick++
		b.used[id] = b.tick
		return
	}
	if r := &b.ref[id]; r.Load() != ref {
		r.Store(ref)
	}
}

// victim returns the ring position a new page takes: a fresh one at the end
// of the ring while the pool is below capacity, otherwise the policy's
// victim's, whose page it takes out of the table. Caller holds mu.
func (b *BufferPool) victim() int {
	if len(b.ring) < b.cap {
		b.ring = append(b.ring, 0)
		return len(b.ring) - 1
	}
	var i int
	if b.policy == PolicyClock {
		i = b.sweep()
	} else {
		i = b.oldest()
	}
	b.evictions.Add(1)
	b.table[b.ring[i]].Store(nil)
	return i
}

// sweep moves the hand past referenced pages, clearing their bit (the
// second chance), and returns the position of the first unreferenced one,
// the hand just past it: the newcomer takes that slot with its bit clear,
// so it survives a full rotation before becoming a candidate. After two
// rotations — possible only while lock-free hits keep setting bits — it
// takes the page under the hand.
func (b *BufferPool) sweep() int {
	for n := 2 * len(b.ring); ; n-- {
		i := b.hand
		if b.hand++; b.hand == len(b.ring) {
			b.hand = 0
		}
		if r := &b.ref[b.ring[i]]; n > 0 && r.Load() {
			r.Store(false)
		} else {
			return i
		}
	}
}

// oldest returns the position of the cached page whose last use is oldest.
func (b *BufferPool) oldest() int {
	v := 0
	for i, id := range b.ring {
		if b.used[id] < b.used[b.ring[v]] {
			v = i
		}
	}
	return v
}

// unring takes the page at ring position i out of the ring after its read
// failed. Caller holds mu.
func (b *BufferPool) unring(i int) {
	b.ring = slices.Delete(b.ring, i, i+1)
	if i < b.hand {
		b.hand--
	}
	if b.hand >= len(b.ring) {
		b.hand = 0
	}
}
