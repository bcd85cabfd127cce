// Package rescache is the serving-layer query-result cache: completed
// preference-query results keyed by a canonical encoding of the query
// (kind, source location, normalized weight vector, k/budget, elementary
// interval for time-dependent queries), so Zipfian traffic — the same
// (source, weights, k) requests repeating — expands the network once per
// distinct query instead of once per request.
//
// The cache reuses the buffer pool's proven machinery one level up (see
// internal/storage): power-of-two shards with per-shard locks and CLOCK
// (second-chance) eviction, per-key miss coalescing (singleflight — a
// thundering herd on a cold popular query performs the expansion once, the
// rest wait and share the result), and lock-free counters on per-shard
// atomics so a /stats poll never stalls query traffic.
//
// # Invalidation
//
// Entries are stamped, not chased: each entry records the tags it depends
// on (the query location's edge, the edges carrying its result facilities,
// its elementary interval) plus the cache's global version at the moment
// its computation began. Invalidate bumps the version and stamps the
// affected tags; an entry is stale when any of its tags was stamped after
// the entry's computation started, and stale entries die lazily — at the
// next lookup that touches them, or when the CLOCK hand sweeps them out.
// Invalidation is therefore O(tags) no matter how many entries are cached,
// and a live update (a facility insert, a profile edit) kills exactly the
// entries whose tags it touched. Flush is the generation-stamped epoch
// fallback: it invalidates every entry at once, for structural changes
// whose precise tag set is unknown (e.g. a time-axis recompile that
// renumbers intervals — though those use the narrower class tag).
//
// # Relaxed consistency
//
// A computation that raced an invalidation (the tag was stamped after the
// computation began) is returned to its own caller but never cached, so no
// entry outlives an update that affects it; callers coalesced onto it look
// the key up again rather than share an answer the update may have made
// stale before they arrived. What a *hit* may observe is deliberately
// relaxed — see the contract in ARCHITECTURE.md
// ("Result cache"): hits return the shared cached result (callers must
// treat it as read-only), carry the work statistics of the query that
// filled the entry, and — for facility updates — entries whose tags the
// update did not touch survive by design.
package rescache

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mcn/internal/core"
	"mcn/internal/graph"
)

// ErrComputePanic is returned to coalesced waiters when the query that was
// computing their shared entry panicked; the panic itself propagates on the
// computing goroutine (the engine's per-query isolation recovers it there).
var ErrComputePanic = errors.New("rescache: shared computation panicked")

// Tag names one thing a cached entry depends on. Tags partition into kinds
// (edge, elementary interval, class) so the same 64-bit space serves them
// all without collisions.
type Tag uint64

const (
	tagKindEdge     uint64 = 1 << 56
	tagKindInterval uint64 = 2 << 56
	tagKindClass    uint64 = 3 << 56
)

// EdgeTag tags entries that depend on edge e: the query location lies on it
// or a result facility does. Facility updates invalidate through it.
func EdgeTag(e graph.EdgeID) Tag { return Tag(tagKindEdge | uint64(e)) }

// IntervalTag tags entries answered from elementary time interval k of a
// time-dependent overlay. Profile edits that change only interval k's costs
// invalidate through it.
func IntervalTag(k int) Tag { return Tag(tagKindInterval | uint64(k)) }

// ClassTimeDep tags every time-dependent entry; structural profile changes
// (a recompiled time axis renumbers the intervals) invalidate the whole
// class through it without touching static entries.
const ClassTimeDep = Tag(tagKindClass | 1)

// Superseded marks a value computed from state that was replaced while the
// computation ran in a way no stamp records — a time-dependent version
// published, and its edit invalidated, before Do took its version snapshot.
// Do returns such a value to its computing caller and never stores it.
const Superseded = Tag(tagKindClass | 2)

// Options tunes a Cache. The zero value selects the defaults.
type Options struct {
	// Entries is the cache capacity in cached results; <= 0 selects the
	// default (4096).
	Entries int
	// Shards is the number of independently locked partitions, rounded down
	// to a power of two and clamped so every shard owns at least one entry.
	// Zero derives a default from GOMAXPROCS.
	Shards int
}

// DefaultEntries is the capacity Options{Entries: 0} selects.
const DefaultEntries = 4096

// Value is one cached result. Scale records the L1 norm of the aggregate
// the scores were computed at, so a hit under a positively scaled weight
// vector (the same preferences, different units) can rescale the scores;
// zero means the query kind has no aggregate scale (skyline, nearest,
// within).
type Value struct {
	Result *core.Result
	Scale  float64
}

// ResultAt adapts the cached result to the caller's weight scale (the L1
// norm its KeySpec normalized away). An exact scale match — including the
// scale-free kinds, where both are zero — returns the shared cached result
// untouched, byte-identical to an uncached run. A proportionally scaled
// weight vector shares the entry but gets a copy with scores multiplied by
// the ratio; the ranking is unchanged because the ratio is positive.
func (v Value) ResultAt(scale float64) *core.Result {
	if v.Scale == scale || v.Scale == 0 {
		return v.Result
	}
	ratio := scale / v.Scale
	out := &core.Result{
		Facilities: make([]core.Facility, len(v.Result.Facilities)),
		Stats:      v.Result.Stats,
	}
	for i, f := range v.Result.Facilities {
		f.Score *= ratio
		out.Facilities[i] = f
	}
	return out
}

// Stats is an aggregate snapshot of a cache's lifetime counters, summed
// lock-free across shards (approximate under concurrent traffic, monotone
// per counter — the same contract as the buffer pool's Stats).
type Stats struct {
	// Hits counts lookups served from a live entry; Misses counts lookups
	// that ran the query (coalescing leaders included); Coalesced counts
	// lookups that piggybacked on another query's in-flight computation.
	Hits      int64
	Misses    int64
	Coalesced int64
	// Invalidated counts entries found stale and discarded at lookup or
	// insert time; Evicted counts live entries displaced by CLOCK.
	Invalidated int64
	Evicted     int64
}

// Lookups returns the total number of cache consultations.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses + s.Coalesced }

// HitRate returns the fraction of lookups that avoided running the query
// themselves (hits plus coalesced waiters).
func (s Stats) HitRate() float64 {
	n := s.Lookups()
	if n == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(n)
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d coalesced=%d invalidated=%d evicted=%d hit=%.1f%%",
		s.Hits, s.Misses, s.Coalesced, s.Invalidated, s.Evicted, 100*s.HitRate())
}

// ShardStats is one cache shard's lifetime counters — the result-cache
// analogue of storage.ShardStats, surfaced the same way (lock-free
// snapshots through the facade into /stats) so shard skew is diagnosable
// with the same tooling as the buffer pool's.
type ShardStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Coalesced   int64 `json:"coalesced"`
	Invalidated int64 `json:"invalidated"`
	Evicted     int64 `json:"evicted"`
	// Entries is the shard's current live-entry count.
	Entries int64 `json:"entries"`
}

// Cache is a sharded, CLOCK-evicted, singleflight-coalesced map from
// canonical query keys to completed results. It is safe for concurrent use.
type Cache struct {
	cap    int
	shift  uint
	shards []shard

	// version is the global invalidation clock: bumped on every Invalidate
	// and Flush, snapshotted by each computation before it starts.
	version atomic.Uint64
	// flushed is the version of the last Flush; entries whose snapshot
	// predates it are stale regardless of tags.
	flushed atomic.Uint64

	// tagMu guards stamped, the last-invalidated version per tag. Lookups
	// take the read side per tag check; Invalidate the write side briefly.
	tagMu   sync.RWMutex
	stamped map[Tag]uint64
}

// shard is one cache partition; counters above mu are atomics read
// lock-free, everything below mu is guarded by it.
type shard struct {
	hits        atomic.Int64
	misses      atomic.Int64
	coalesced   atomic.Int64
	invalidated atomic.Int64
	evicted     atomic.Int64
	live        atomic.Int64 // len(entries), mirrored for lock-free stats

	mu       sync.Mutex
	cap      int
	entries  map[string]*entry
	inflight map[string]*flight

	// CLOCK ring and sweep hand; free holds ring indices of invalidated
	// entries, reused before any live entry is evicted.
	slots []*entry
	hand  int
	free  []int

	// pad keeps neighbouring shards' counters off one cache line.
	_ [64]byte
}

// entry is one cached result with its dependency stamps.
type entry struct {
	key  string
	val  Value
	tags []Tag
	// ver is the cache version observed before the entry's computation
	// began; any tag stamped after it marks the entry stale.
	ver  uint64
	slot int  // position in the shard's CLOCK ring
	ref  bool // CLOCK reference bit
}

// flight is one coalesced computation: the leader fills val/err/stored and
// closes done; waiters block on done and share the outcome.
type flight struct {
	done   chan struct{}
	val    Value
	err    error
	stored bool
}

// New returns a cache with the given options.
func New(opts Options) *Cache {
	capacity := opts.Entries
	if capacity <= 0 {
		capacity = DefaultEntries
	}
	n := opts.Shards
	if n <= 0 {
		n = 4 * runtime.GOMAXPROCS(0)
		if n > 64 {
			n = 64
		}
	}
	n = floorPow2(n)
	if n > capacity {
		n = floorPow2(capacity)
	}
	c := &Cache{
		cap:     capacity,
		shift:   uint(64 - bits.Len(uint(n-1))),
		shards:  make([]shard, n),
		stamped: make(map[Tag]uint64),
	}
	if n == 1 {
		c.shift = 64
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = capacity / n
		if i < capacity%n {
			s.cap++
		}
		s.entries = make(map[string]*entry, s.cap)
		s.inflight = make(map[string]*flight)
	}
	c.version.Store(1)
	return c
}

func floorPow2(n int) int { return 1 << (bits.Len(uint(n)) - 1) }

// shard maps a key to its partition by FNV-1a with a Fibonacci finalizer,
// so near-identical keys (adjacent edges, k±1) still spread.
func (c *Cache) shard(key string) *shard {
	if c.shift >= 64 {
		return &c.shards[0]
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[(h*0x9E3779B97F4A7C15)>>c.shift]
}

// Capacity returns the total entry capacity.
func (c *Cache) Capacity() int { return c.cap }

// Shards returns the number of partitions.
func (c *Cache) Shards() int { return len(c.shards) }

// Len returns the number of live cached entries (lock-free, approximate
// during concurrent inserts).
func (c *Cache) Len() int {
	var n int64
	for i := range c.shards {
		n += c.shards[i].live.Load()
	}
	return int(n)
}

// Stats returns the aggregate counters (lock-free; see Stats).
func (c *Cache) Stats() Stats {
	var out Stats
	for i := range c.shards {
		s := &c.shards[i]
		out.Hits += s.hits.Load()
		out.Misses += s.misses.Load()
		out.Coalesced += s.coalesced.Load()
		out.Invalidated += s.invalidated.Load()
		out.Evicted += s.evicted.Load()
	}
	return out
}

// ShardStats returns one entry per partition, in shard order — the same
// per-shard skew view the buffer pool exposes, read lock-free.
func (c *Cache) ShardStats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		out[i] = ShardStats{
			Hits:        s.hits.Load(),
			Misses:      s.misses.Load(),
			Coalesced:   s.coalesced.Load(),
			Invalidated: s.invalidated.Load(),
			Evicted:     s.evicted.Load(),
			Entries:     s.live.Load(),
		}
	}
	return out
}

// Invalidate stamps the given tags: every entry depending on any of them —
// cached already or still computing — is stale from this moment and will
// be discarded rather than served. O(tags); entries die lazily.
func (c *Cache) Invalidate(tags ...Tag) {
	if len(tags) == 0 {
		return
	}
	v := c.version.Add(1)
	c.tagMu.Lock()
	for _, t := range tags {
		c.stamped[t] = v
	}
	c.tagMu.Unlock()
}

// Flush invalidates every entry at once — the epoch fallback for updates
// whose precise tag set is unknown. Like Invalidate it is O(1) in the
// number of entries; memory is reclaimed lazily.
func (c *Cache) Flush() {
	c.flushed.Store(c.version.Add(1))
}

// stale reports whether an entry computed at version ver with the given
// tags has been invalidated since.
func (c *Cache) stale(ver uint64, tags []Tag) bool {
	if c.flushed.Load() > ver {
		return true
	}
	c.tagMu.RLock()
	defer c.tagMu.RUnlock()
	for _, t := range tags {
		if c.stamped[t] > ver {
			return true
		}
	}
	return false
}

// Do returns the cached value for key, computing it on a miss. compute
// returns the value plus the tags it depends on; concurrent Do calls for
// the same key share one computation. hit reports whether the value came
// from a live cached entry; coalesced waiters report hit=false. Errors are
// never cached: every waiter of a failed computation receives its error and
// the next Do retries. A value that is not stored — it raced an
// invalidation or is Superseded — is valid for its computing caller only,
// so its waiters look the key up again instead of sharing it.
//
// The returned Value is shared with the cache and other callers; treat the
// Result as read-only.
func (c *Cache) Do(key string, compute func() (Value, []Tag, error)) (val Value, hit bool, err error) {
	s := c.shard(key)
	for {
		s.mu.Lock()
		if e, ok := s.entries[key]; ok {
			if c.stale(e.ver, e.tags) {
				s.kill(e)
				s.invalidated.Add(1)
			} else {
				e.ref = true
				val = e.val
				s.hits.Add(1)
				s.mu.Unlock()
				return val, true, nil
			}
		}
		f, ok := s.inflight[key]
		if !ok {
			break
		}
		s.coalesced.Add(1)
		s.mu.Unlock()
		<-f.done
		if f.err != nil || f.stored {
			return f.val, false, f.err
		}
	}
	s.misses.Add(1)
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	// ver is snapshotted before the computation starts: an invalidation
	// landing while the query runs stamps a higher version, so the entry
	// below is recognisably stale and never inserted.
	ver := c.version.Load()
	completed := false
	// A panicking compute must not strand coalesced waiters: release them
	// with an error, then let the panic continue to the caller's isolation
	// layer.
	defer func() {
		if !completed {
			s.mu.Lock()
			delete(s.inflight, key)
			s.mu.Unlock()
			f.err = ErrComputePanic
			close(f.done)
		}
	}()
	val, tags, err := compute()
	completed = true

	s.mu.Lock()
	delete(s.inflight, key)
	if err == nil && !slices.Contains(tags, Superseded) && !c.stale(ver, tags) {
		if _, ok := s.entries[key]; !ok {
			s.insert(&entry{key: key, val: val, tags: tags, ver: ver})
		}
		f.stored = true
	}
	s.mu.Unlock()
	f.val, f.err = val, err
	close(f.done)
	return val, false, err
}

// Lookup probes the cache without computing; ok reports a live hit. It
// obeys the same staleness rules as Do (a stale entry is discarded and
// reported as a miss) but does not touch the hit/miss counters, so probes
// from tests and diagnostics do not skew serving statistics.
func (c *Cache) Lookup(key string) (Value, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return Value{}, false
	}
	if c.stale(e.ver, e.tags) {
		s.kill(e)
		s.invalidated.Add(1)
		return Value{}, false
	}
	e.ref = true
	return e.val, true
}

// kill removes an invalidated entry from the map and puts its ring slot on
// the free list for reuse. Caller holds mu.
func (s *shard) kill(e *entry) {
	delete(s.entries, e.key)
	s.slots[e.slot] = nil
	s.free = append(s.free, e.slot)
	s.live.Store(int64(len(s.entries)))
}

// insert places a new entry, reusing freed (invalidated) slots first and
// otherwise evicting with a CLOCK second-chance sweep once the shard is
// full. Only displacing a live entry counts as an eviction. Caller holds
// mu; the free-list-first order keeps the invariant that the sweep never
// encounters an empty slot.
func (s *shard) insert(e *entry) {
	switch {
	case len(s.free) > 0:
		e.slot = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		s.slots[e.slot] = e
	case len(s.slots) < s.cap:
		e.slot = len(s.slots)
		s.slots = append(s.slots, e)
	default:
		for {
			victim := s.slots[s.hand]
			if !victim.ref {
				s.evicted.Add(1)
				delete(s.entries, victim.key)
				break
			}
			victim.ref = false
			s.hand++
			if s.hand == len(s.slots) {
				s.hand = 0
			}
		}
		e.slot = s.hand
		s.slots[s.hand] = e
		s.hand++
		if s.hand == len(s.slots) {
			s.hand = 0
		}
	}
	s.entries[e.key] = e
	s.live.Store(int64(len(s.entries)))
}
