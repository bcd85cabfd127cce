// Package rescache is the serving-layer query-result cache: completed
// preference-query results keyed by a canonical encoding of the query
// (kind, source location, normalized weight vector, k/budget, elementary
// interval for time-dependent queries), so Zipfian traffic — the same
// (source, weights, k) requests repeating — expands the network once per
// distinct query instead of once per request.
//
// The cache reuses the buffer pool's proven machinery one level up (see
// internal/storage): one replacement domain — one CLOCK (second-chance)
// ring over the whole capacity under one mutex, so which entries survive
// depends on the key sequence alone, never on the host's core count —
// per-key miss coalescing (singleflight — a thundering herd on a cold
// popular query performs the expansion once, the rest wait and share the
// result), and counters on atomics so a /stats poll never takes the lock.
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

// Stats is a snapshot of a cache's lifetime counters, read lock-free one
// counter at a time (approximate under concurrent traffic, monotone per
// counter — the same contract as the buffer pool's Stats).
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

// Cache is a CLOCK-evicted, singleflight-coalesced map from canonical query
// keys to completed results: one replacement domain under one mutex. It is
// safe for concurrent use.
type Cache struct {
	cap int

	// Counters are atomics so Stats and Len never take mu.
	hits        atomic.Int64
	misses      atomic.Int64
	coalesced   atomic.Int64
	invalidated atomic.Int64
	evicted     atomic.Int64
	live        atomic.Int64 // len(entries), mirrored for lock-free reads

	// version is the global invalidation clock: bumped on every Invalidate
	// and Flush, snapshotted by each computation before it starts.
	version atomic.Uint64
	// flushed is the version of the last Flush; entries whose snapshot
	// predates it are stale regardless of tags.
	flushed atomic.Uint64

	// mu guards everything below it.
	mu       sync.Mutex
	entries  map[string]*entry
	inflight map[string]*flight
	// stamped is the last-invalidated version per tag.
	stamped map[Tag]uint64

	// CLOCK ring and sweep hand; free holds ring indices of invalidated
	// entries, reused before any live entry is evicted.
	slots []*entry
	hand  int
	free  []int
}

// entry is one cached result with its dependency stamps.
type entry struct {
	key  string
	val  Value
	tags []Tag
	// ver is the cache version observed before the entry's computation
	// began; any tag stamped after it marks the entry stale.
	ver  uint64
	slot int  // position in the CLOCK ring
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
	c := &Cache{
		cap:      capacity,
		entries:  make(map[string]*entry, capacity),
		inflight: make(map[string]*flight),
		stamped:  make(map[Tag]uint64),
	}
	c.version.Store(1)
	return c
}

// Capacity returns the total entry capacity.
func (c *Cache) Capacity() int { return c.cap }

// Len returns the number of live cached entries (lock-free, approximate
// during concurrent inserts).
func (c *Cache) Len() int { return int(c.live.Load()) }

// Stats returns the lifetime counters (lock-free; see Stats).
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Coalesced:   c.coalesced.Load(),
		Invalidated: c.invalidated.Load(),
		Evicted:     c.evicted.Load(),
	}
}

// Invalidate stamps the given tags: every entry depending on any of them —
// cached already or still computing — is stale from this moment and will
// be discarded rather than served. O(tags); entries die lazily.
func (c *Cache) Invalidate(tags ...Tag) {
	if len(tags) == 0 {
		return
	}
	v := c.version.Add(1)
	c.mu.Lock()
	for _, t := range tags {
		c.stamped[t] = v
	}
	c.mu.Unlock()
}

// Flush invalidates every entry at once — the epoch fallback for updates
// whose precise tag set is unknown. Like Invalidate it is O(1) in the
// number of entries; memory is reclaimed lazily.
func (c *Cache) Flush() {
	c.flushed.Store(c.version.Add(1))
}

// stale reports whether an entry computed at version ver with the given
// tags has been invalidated since. Caller holds mu.
func (c *Cache) stale(ver uint64, tags []Tag) bool {
	if c.flushed.Load() > ver {
		return true
	}
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
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if c.stale(e.ver, e.tags) {
				c.kill(e)
				c.invalidated.Add(1)
			} else {
				e.ref = true
				val = e.val
				c.mu.Unlock()
				c.hits.Add(1)
				return val, true, nil
			}
		}
		f, ok := c.inflight[key]
		if !ok {
			break
		}
		c.coalesced.Add(1)
		c.mu.Unlock()
		<-f.done
		if f.err != nil || f.stored {
			return f.val, false, f.err
		}
	}
	c.misses.Add(1)
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

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
			c.mu.Lock()
			delete(c.inflight, key)
			c.mu.Unlock()
			f.err = ErrComputePanic
			close(f.done)
		}
	}()
	val, tags, err := compute()
	completed = true

	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil && !slices.Contains(tags, Superseded) && !c.stale(ver, tags) {
		if _, ok := c.entries[key]; !ok {
			c.insert(&entry{key: key, val: val, tags: tags, ver: ver})
		}
		f.stored = true
	}
	c.mu.Unlock()
	f.val, f.err = val, err
	close(f.done)
	return val, false, err
}

// Query answers one query through c: the one way a query enters the cache.
// spec carries the kind's key fields and, for a time-dependent query, its
// interval and axis; Query adds the location and the variant opt selects
// (Engine, NoEnhancements), so that a hit is what the same request would
// compute. run computes the result; tags, run on a miss only, returns the
// tags a computed result depends on. A nil cache, a query whose
// opt.OnResult must observe the search run, and a query Key cannot key all
// run without the cache. hit reports a live entry's result: shared with the
// cache (read-only) and rescaled to the caller's weights by
// Value.ResultAt.
func (c *Cache) Query(spec KeySpec, loc graph.Location, opt core.Options, run func() (*core.Result, error), tags func(*core.Result) []Tag) (res *core.Result, hit bool, err error) {
	if c != nil && opt.OnResult == nil {
		spec.Engine, spec.NoEnhancements = byte(opt.Engine), opt.NoEnhancements
		spec.Edge, spec.T = loc.Edge, loc.T
		if key, scale, ok := spec.Key(); ok {
			val, hit, err := c.Do(key, func() (Value, []Tag, error) {
				res, err := run()
				if err != nil {
					return Value{}, nil, err
				}
				return Value{Result: res, Scale: scale}, tags(res), nil
			})
			if err != nil {
				return nil, false, err
			}
			return val.ResultAt(scale), hit, nil
		}
	}
	res, err = run()
	return res, false, err
}

// kill removes an invalidated entry from the map and puts its ring slot on
// the free list for reuse. Caller holds mu.
func (c *Cache) kill(e *entry) {
	delete(c.entries, e.key)
	c.slots[e.slot] = nil
	c.free = append(c.free, e.slot)
	c.live.Store(int64(len(c.entries)))
}

// insert places a new entry, reusing freed (invalidated) slots first and
// otherwise evicting with a CLOCK second-chance sweep once the cache is
// full. Only displacing a live entry counts as an eviction. Caller holds
// mu; the free-list-first order keeps the invariant that the sweep never
// encounters an empty slot.
func (c *Cache) insert(e *entry) {
	switch {
	case len(c.free) > 0:
		e.slot = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.slots[e.slot] = e
	case len(c.slots) < c.cap:
		e.slot = len(c.slots)
		c.slots = append(c.slots, e)
	default:
		for {
			victim := c.slots[c.hand]
			if !victim.ref {
				c.evicted.Add(1)
				delete(c.entries, victim.key)
				break
			}
			victim.ref = false
			c.hand++
			if c.hand == len(c.slots) {
				c.hand = 0
			}
		}
		e.slot = c.hand
		c.slots[c.hand] = e
		c.hand++
		if c.hand == len(c.slots) {
			c.hand = 0
		}
	}
	c.entries[e.key] = e
	c.live.Store(int64(len(c.entries)))
}
