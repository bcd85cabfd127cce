// Package timedep implements the paper's second future-work item (Sec.
// VII): preference queries in MCNs whose edge costs are functions of time,
// answering skyline and top-k "for every time instance within a given
// period".
//
// Edge costs follow piecewise-constant profiles (e.g. rush-hour multipliers
// on driving time, off-peak toll discounts). Within one elementary interval
// — between two consecutive breakpoints of any edge profile — every cost in
// the network is constant, so the preferred set is constant too and one
// static MCN query answers the whole interval. A period query therefore
// partitions [from, to) at the profile breakpoints, runs the static query of
// an interval only when an edge the last run read changed cost there (else
// the result cannot change), and merges adjacent intervals with identical
// results.
//
// Costs are frozen at the query instant ("frozen-at-departure"): a route
// evaluated for instant t uses the cost surface at t throughout. This is the
// standard simplification that keeps each instant an ordinary MCN query; the
// FIFO travel-time model of Kanoulas et al. [30] is orthogonal machinery the
// paper treats as related work, not as part of the proposed queries.
//
// Queries run on the flat overlay fast path (see flat.Overlay): topology and
// base costs compiled once, plus one precomputed cost row per profile
// segment of each profiled edge. An edge's cost changes only at its own
// breakpoints, so memory grows with the profiles' segments, not with the
// number of elementary intervals. A query at instant t binds a flat.View to
// the start of its interval — a binary search, no rebuild — and runs at the
// in-memory fast path's allocation level; the equivalence tests check it
// against a static snapshot rebuilt per instant. One pruning index over each edge's
// lowest cost at any instant is admissible at every instant; it is built on
// the first WithinAt, the only query that reads it.
//
// A network is a sequence of immutable versions, one per profile
// configuration. SetProfile compiles the next version — new rows for the
// edited edges, every other row shared — and publishes it with one atomic
// store, so queries never compile or lock, and edits may race them.
package timedep

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mcn/internal/core"
	"mcn/internal/flat"
	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/rescache"
	"mcn/internal/vec"
)

// Profile is a piecewise-constant cost modifier for one edge: during
// [Times[i], Times[i+1]) the edge's base cost vector is multiplied
// component-wise by Mult[i] (the last interval extends to +Inf). Before
// Times[0] the base costs apply unchanged.
type Profile struct {
	Times []float64
	Mult  []vec.Costs
}

// Validate checks the profile against a network with d cost types.
func (p Profile) Validate(d int) error {
	if len(p.Times) != len(p.Mult) {
		return fmt.Errorf("timedep: %d breakpoints but %d multipliers", len(p.Times), len(p.Mult))
	}
	if len(p.Times) == 0 {
		return fmt.Errorf("timedep: empty profile")
	}
	// Breakpoints are load-bearing for the overlay's binary-searched time
	// axis: a NaN would slip past the ordering check below and leave the
	// compiled breakpoint array unsorted.
	for i, tv := range p.Times {
		if math.IsNaN(tv) || math.IsInf(tv, 0) {
			return fmt.Errorf("timedep: breakpoint %d is %g; must be finite", i, tv)
		}
	}
	for i := 1; i < len(p.Times); i++ {
		if p.Times[i-1] >= p.Times[i] {
			return fmt.Errorf("timedep: breakpoints not strictly increasing at %d", i)
		}
	}
	for i, m := range p.Mult {
		if len(m) != d {
			return fmt.Errorf("timedep: multiplier %d has %d components, want %d", i, len(m), d)
		}
		for j, v := range m {
			// An infinite multiplier turns a zero cost into NaN.
			if !(v > 0) || math.IsInf(v, 1) {
				return fmt.Errorf("timedep: multiplier %d component %d is %g; must be positive and finite", i, j, v)
			}
		}
	}
	return nil
}

// clone returns a deep copy of p, so a stored profile never aliases the
// caller's slices.
func (p Profile) clone() Profile {
	c := Profile{Times: slices.Clone(p.Times), Mult: make([]vec.Costs, len(p.Mult))}
	for i, m := range p.Mult {
		c.Mult[i] = m.Clone()
	}
	return c
}

// floor returns the component-wise smallest multiplier the profile ever
// applies, counting the unscaled costs before Times[0]: min(1, every Mult).
// An unprofiled edge's zero Profile floors at 1.
func (p Profile) floor(d int) vec.Costs {
	m := make(vec.Costs, d)
	for i := range m {
		m[i] = 1
		for _, mult := range p.Mult {
			m[i] = math.Min(m[i], mult[i])
		}
	}
	return m
}

// scaled appends base costs w under multiplier m to dst — the one place a
// profile scales a cost. A nil m appends w unscaled.
func scaled(dst, w, m vec.Costs) vec.Costs {
	if m == nil {
		return append(dst, w...)
	}
	for i := range w {
		dst = append(dst, w[i]*m[i])
	}
	return dst
}

// Network is a multi-cost network with time-dependent edge costs. Attach
// profiles with SetProfile, then query. Every query answers from the version
// it loads when it starts: the network's topology and base costs compiled
// once into a flat overlay, the version's cost rows for its profiled edges,
// and a pruning index built on the first WithinAt. Queries and SetProfile
// calls are safe from any number of goroutines; a query that overlaps an
// edit answers for the version before or after it.
type Network struct {
	base *graph.Graph
	// ov is base's CSR compilation and base cost matrix, built once by New
	// and shared by every version.
	ov *flat.Overlay

	// cache, when non-nil, memoizes instant-query results keyed by
	// elementary interval; see EnableResultCache.
	cache *rescache.Cache

	// cur is the published version. writeMu serialises the edits that
	// derive and replace it; queries never take it.
	cur     atomic.Pointer[version]
	writeMu sync.Mutex
}

// version is one immutable profile configuration: the profiles, their cost
// rows by edge id (nil when unprofiled), the ascending global breakpoints
// (interval k is active on [times[k-1], times[k]), interval 0 before
// times[0]), and a pruning index admissible in every interval.
type version struct {
	profiles map[graph.EdgeID]Profile
	rows     []*flat.Rows
	times    []float64
	// axis numbers times for the result cache's keys: it advances whenever
	// times differs from the predecessor's, which renumbers the intervals.
	axis  uint64
	floor *lazyIndex
}

// lazyIndex is a pruning index over each edge's lowest cost at any instant,
// built on first use and shared by successive versions with equal floors.
// Every interval's costs are at least the floors, so its bounds are
// admissible in every interval (index.SlackFactor absorbs summation order).
type lazyIndex struct {
	once   sync.Once
	bounds *index.Bounds
}

// intervalAt resolves instant t to its elementary-interval index: a binary
// search over the breakpoints, nothing else.
func (v *version) intervalAt(t float64) int {
	return sort.Search(len(v.times), func(i int) bool { return v.times[i] > t })
}

// start returns the first instant of elementary interval k; the interval
// before the first breakpoint starts at -Inf and carries the base costs.
func (v *version) start(k int) float64 {
	if k == 0 {
		return math.Inf(-1)
	}
	return v.times[k-1]
}

// floorIndex returns the version's pruning index over n, numbered like n's
// compiled topology, building it on the first call by this version or any
// that shares it.
func (v *version) floorIndex(n *Network) *index.Bounds {
	v.floor.once.Do(func() {
		g := n.base
		lowest := make([]vec.Costs, g.NumEdges())
		for e := range lowest {
			lowest[e] = g.Edge(graph.EdgeID(e)).W
		}
		for e, p := range v.profiles {
			lowest[e] = scaled(make(vec.Costs, 0, g.D()), lowest[e], p.floor(g.D()))
		}
		v.floor.bounds = n.ov.Base().Bounds(index.FromCosts(g, func(e graph.EdgeID, i int) float64 { return lowest[e][i] }))
	})
	return v.floor.bounds
}

// New wraps a static network; edges without profiles keep their base costs
// at all times. It compiles the topology and base costs, which every version
// shares.
func New(g *graph.Graph) *Network {
	n := &Network{base: g, ov: flat.NewOverlay(flat.Compile(g))}
	n.cur.Store(&version{profiles: map[graph.EdgeID]Profile{}, rows: make([]*flat.Rows, g.NumEdges()), floor: &lazyIndex{}})
	return n
}

// EnableResultCache attaches a serving-layer result cache to the network's
// instant queries (*At); period sweeps always execute. Attach it before
// queries and edits start. Several networks and executors may share one
// cache: time-dependent entries carry interval and class tags that static
// entries never match, so SetProfile invalidation cannot touch them.
func (n *Network) EnableResultCache(c *rescache.Cache) { n.cache = c }

// SetProfile attaches a copy of p to edge e, replacing any previous profile.
// It compiles the next version — edge e's cost rows, every other edge's
// shared — and publishes it; queries already running finish on the version
// they loaded. When the global breakpoint axis is unchanged (the profile
// adds no instant and retires none), an attached result cache invalidates
// only the intervals where edge e's effective cost changed; an edit that
// moves the axis renumbers the intervals and invalidates the whole
// time-dependent class. Static entries in a shared cache are never touched.
func (n *Network) SetProfile(e graph.EdgeID, p Profile) error {
	return n.setProfiles(map[graph.EdgeID]Profile{e: p.clone()})
}

// setProfiles validates every edit, then compiles and publishes one version
// carrying all of them, so a bulk attach merges the time axis once rather
// than once per edit. The version keeps the edits' profiles: the caller must
// not retain them.
func (n *Network) setProfiles(edits map[graph.EdgeID]Profile) error {
	d := n.base.D()
	for e, p := range edits {
		if int(e) >= n.base.NumEdges() {
			return fmt.Errorf("timedep: edge %d out of range (%d edges)", e, n.base.NumEdges())
		}
		if err := p.Validate(d); err != nil {
			return err
		}
	}
	n.writeMu.Lock()
	defer n.writeMu.Unlock()
	cur := n.cur.Load()
	next := &version{
		profiles: make(map[graph.EdgeID]Profile, len(cur.profiles)+len(edits)),
		rows:     slices.Clone(cur.rows),
		axis:     cur.axis,
		floor:    cur.floor,
	}
	maps.Copy(next.profiles, cur.profiles)
	for e, p := range edits {
		costs := make(vec.Costs, 0, len(p.Mult)*d)
		for _, m := range p.Mult {
			costs = scaled(costs, n.base.Edge(e).W, m)
		}
		rows, err := n.ov.NewRows(p.Times, costs)
		if err != nil {
			return fmt.Errorf("timedep: edge %d: %w", e, err)
		}
		if !p.floor(d).Equal(cur.profiles[e].floor(d)) {
			next.floor = &lazyIndex{}
		}
		next.profiles[e], next.rows[e] = p, rows
	}
	next.times = breakpointUnion(next.profiles)
	tags := []rescache.Tag{rescache.ClassTimeDep}
	if slices.Equal(next.times, cur.times) {
		// Interval numbering is stable: only the intervals where an edited
		// edge's cost changed are invalidated.
		tags = nil
		for e := range edits {
			for k := 0; k <= len(next.times); k++ {
				was, is := n.ov.View(cur.rows, next.start(k)), n.ov.View(next.rows, next.start(k))
				a, _ := was.EdgeInfo(e)
				b, _ := is.EdgeInfo(e)
				if !a.W.Equal(b.W) {
					tags = append(tags, rescache.IntervalTag(k))
				}
			}
		}
	} else {
		next.axis++
	}
	n.cur.Store(next)
	if n.cache != nil && len(tags) > 0 {
		// After the store: a query still computing from cur is stale under
		// these stamps, or instant sees the store and marks it Superseded.
		n.cache.Invalidate(tags...)
	}
	return nil
}

// breakpointUnion returns the sorted union of every profile's instants —
// the global time axis of a version with these profiles.
func breakpointUnion(profiles map[graph.EdgeID]Profile) []float64 {
	var all []float64
	for _, p := range profiles {
		all = append(all, p.Times...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// Breakpoints returns the ascending instants in [from, to) where some edge
// cost changes, always starting with from itself.
func (n *Network) Breakpoints(from, to float64) []float64 {
	return breaksIn(n.cur.Load().times, from, to)
}

// breaksIn returns from followed by the instants of the ascending axis that
// lie strictly inside (from, to).
func breaksIn(axis []float64, from, to float64) []float64 {
	out := []float64{from}
	for _, t := range axis {
		if t > from && t < to {
			out = append(out, t)
		}
	}
	return out
}

// IntervalResult is one maximal time interval with a constant preferred set.
type IntervalResult struct {
	From, To float64
	Result   *core.Result
}

// instant runs one static query against the view at the start of the
// elementary interval covering t: the shared prologue of every *At entry
// point — location validation, version load, pruning index for within, ctx
// binding. spec carries the kind-specific key fields; through an attached
// cache, the query is keyed by elementary interval (every instant inside the
// interval shares one entry) and tagged with its interval plus the
// time-dependent class.
func (n *Network) instant(ctx context.Context, loc graph.Location, t float64, opt core.Options, spec rescache.KeySpec, query func(*flat.View, core.Options) (*core.Result, error)) (*core.Result, error) {
	if err := loc.Validate(n.base); err != nil {
		return nil, err
	}
	v := n.cur.Load()
	k := v.intervalAt(t)
	spec.Interval, spec.Axis = k, v.axis
	res, _, err := n.cache.Query(ctx, spec, loc, opt, func() (*core.Result, error) {
		if opt.Bounds == nil && spec.Kind == rescache.KindWithin {
			// Only within reads an index, so only a within that runs builds
			// it. The version's own, never the static network's: bounds built
			// for the base costs are inadmissible once a multiplier drops
			// below 1. Pruning does not change results, so the cache key
			// needs no extra field.
			opt.Bounds = v.floorIndex(n)
		}
		view := n.ov.View(v.rows, v.start(k))
		return query(&view, opt.BindContext(ctx))
	}, func(*core.Result) []rescache.Tag {
		tags := []rescache.Tag{rescache.IntervalTag(k), rescache.ClassTimeDep}
		if n.cur.Load() != v {
			// An edit published since v was loaded may have stamped its
			// tags before Query's version snapshot, where they cannot mark
			// this entry stale: answer from v, store nothing.
			tags = append(tags, rescache.Superseded)
		}
		return tags
	})
	return res, err
}

// SkylineAt computes sky(q) under the cost surface in effect at instant t:
// the skyline query of the paper over the elementary interval covering t,
// answered from the compiled overlay. Cancelling ctx aborts the query at its
// next interrupt poll.
func (n *Network) SkylineAt(ctx context.Context, loc graph.Location, t float64, opt core.Options) (*core.Result, error) {
	return n.instant(ctx, loc, t, opt, rescache.KeySpec{Kind: rescache.KindSkyline},
		func(v *flat.View, opt core.Options) (*core.Result, error) {
			return core.Skyline(v, loc, opt)
		})
}

// TopKAt computes the k facilities minimising agg at instant t.
func (n *Network) TopKAt(ctx context.Context, loc graph.Location, agg vec.Aggregate, k int, t float64, opt core.Options) (*core.Result, error) {
	return n.instant(ctx, loc, t, opt, rescache.KeySpec{Kind: rescache.KindTopK, Agg: agg, K: k},
		func(v *flat.View, opt core.Options) (*core.Result, error) {
			return core.TopK(v, loc, agg, k, opt)
		})
}

// NearestAt returns up to k facilities closest to loc under cost type
// costIdx at instant t, in non-decreasing cost order.
func (n *Network) NearestAt(ctx context.Context, loc graph.Location, costIdx, k int, t float64, opt core.Options) (*core.Result, error) {
	return n.instant(ctx, loc, t, opt, rescache.KeySpec{Kind: rescache.KindNearest, CostIdx: costIdx, K: k},
		func(v *flat.View, opt core.Options) (*core.Result, error) {
			return core.Nearest(v, loc, costIdx, k, opt)
		})
}

// WithinAt returns the facilities whose full cost vector at instant t fits
// the budget component-wise.
func (n *Network) WithinAt(ctx context.Context, loc graph.Location, budget vec.Costs, t float64, opt core.Options) (*core.Result, error) {
	return n.instant(ctx, loc, t, opt, rescache.KeySpec{Kind: rescache.KindWithin, Budget: budget},
		func(v *flat.View, opt core.Options) (*core.Result, error) {
			return core.Within(v, loc, budget, opt)
		})
}

// SkylineOverPeriod returns the skyline for every instant in [from, to): one
// entry per maximal sub-interval with a constant skyline. Cancelling ctx
// aborts the sweep between intervals and inside each per-interval query.
// With opt.OnResult set, every interval's query runs (see overPeriod).
func (n *Network) SkylineOverPeriod(ctx context.Context, loc graph.Location, from, to float64, opt core.Options) ([]IntervalResult, error) {
	return n.overPeriod(ctx, loc, from, to, opt, func(v *flat.View, opt core.Options) (*core.Result, error) {
		return core.Skyline(v, loc, opt)
	})
}

// TopKOverPeriod returns the top-k set for every instant in [from, to).
func (n *Network) TopKOverPeriod(ctx context.Context, loc graph.Location, agg vec.Aggregate, k int, from, to float64, opt core.Options) ([]IntervalResult, error) {
	return n.overPeriod(ctx, loc, from, to, opt, func(v *flat.View, opt core.Options) (*core.Result, error) {
		return core.TopK(v, loc, agg, k, opt)
	})
}

// readsPool recycles the sweeps' read sets, |E| stamps each.
var readsPool = sync.Pool{New: func() any { return new(flat.Reads) }}

// overPeriod sweeps the elementary intervals intersecting [from, to),
// merging adjacent intervals with identical preferred sets. An interval
// runs the static query against the view at its start only if an edge the
// last run read costs differently there, or if opt.OnResult must observe
// every run; otherwise it would repeat that run, so it extends the last entry.
func (n *Network) overPeriod(ctx context.Context, loc graph.Location, from, to float64, opt core.Options, query func(*flat.View, core.Options) (*core.Result, error)) ([]IntervalResult, error) {
	if !(from < to) {
		return nil, fmt.Errorf("timedep: empty period [%g, %g)", from, to)
	}
	if err := loc.Validate(n.base); err != nil {
		return nil, err
	}
	v := n.cur.Load()
	// Bound once for the whole sweep, so a deadline that passes inside an
	// interval stops that interval's query at its next pop.
	opt = opt.BindContext(ctx)
	breaks := breaksIn(v.times, from, to)
	reads := readsPool.Get().(*flat.Reads)
	defer readsPool.Put(reads)
	var out []IntervalResult
	var view flat.View // the last interval run's, rebound per run
	for i, start := range breaks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := to
		if i+1 < len(breaks) {
			end = breaks[i+1]
		}
		at := v.start(v.intervalAt(start))
		if i > 0 && opt.OnResult == nil && view.Unchanged(at) {
			out[len(out)-1].To = end // the same reads: the same result
			continue
		}
		view = n.ov.View(v.rows, at)
		view.Track(reads)
		res, err := query(&view, opt)
		if err != nil {
			return nil, err
		}
		if len(out) > 0 && sameIDs(out[len(out)-1].Result, res) {
			out[len(out)-1].To = end // merge: identical preferred set
			continue
		}
		out = append(out, IntervalResult{From: start, To: end, Result: res})
	}
	return out, nil
}

// sameIDs compares the facility id sets (order-insensitive) of two results.
func sameIDs(a, b *core.Result) bool {
	if len(a.Facilities) != len(b.Facilities) {
		return false
	}
	ids := make(map[graph.FacilityID]int, len(a.Facilities))
	for _, f := range a.Facilities {
		ids[f.ID]++
	}
	for _, f := range b.Facilities {
		if ids[f.ID] == 0 {
			return false
		}
		ids[f.ID]--
	}
	return true
}
