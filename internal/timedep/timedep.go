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
// partitions [from, to) at the profile breakpoints, runs the corresponding
// static query per elementary interval, and merges adjacent intervals with
// identical results.
//
// Costs are frozen at the query instant ("frozen-at-departure"): a route
// evaluated for instant t uses the cost surface at t throughout. This is the
// standard simplification that keeps each instant an ordinary MCN query; the
// FIFO travel-time model of Kanoulas et al. [30] is orthogonal machinery the
// paper treats as related work, not as part of the proposed queries.
//
// Queries run on the flat overlay fast path: the network's topology is
// compiled once into shared CSR arrays (see flat.Overlay) with one dense
// cost vector per elementary interval — the global partition of the time
// axis at every profile breakpoint. Answering a query at instant t then
// costs a binary search over the breakpoints plus a pointer read for the
// interval's view; the per-interval graph.Graph rebuild of the Snapshot
// path (kept as the reference implementation for equivalence tests) never
// runs. An interval view is an ordinary sized, zero-copy source, so instant
// queries run at the in-memory fast path's allocation level. One pruning
// index, built over each edge's lowest cost at any instant, is admissible at
// every instant and serves WithinAt in every interval; it is built on the
// first WithinAt, since no other query reads it.
//
// A network is a sequence of immutable versions, one per profile
// configuration. SetProfile compiles the next version from the current one
// and publishes it with one atomic store — an edit that keeps the
// breakpoint axis copies only the interval matrices whose costs it changes
// and shares the rest — so queries load a version once and never compile or
// lock, and edits may race them.
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
			if !(v > 0) {
				return fmt.Errorf("timedep: multiplier %d component %d is %g; must be positive", i, j, v)
			}
		}
	}
	return nil
}

// At returns the multiplier vector in effect at instant t (nil means "base
// costs unchanged").
func (p Profile) At(t float64) vec.Costs {
	// Largest i with Times[i] <= t.
	i := sort.SearchFloat64s(p.Times, t)
	if i < len(p.Times) && p.Times[i] == t {
		return p.Mult[i]
	}
	if i == 0 {
		return nil
	}
	return p.Mult[i-1]
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
func (p Profile) floor() vec.Costs {
	m := make(vec.Costs, len(p.Mult[0]))
	for i := range m {
		m[i] = 1
		for _, mult := range p.Mult {
			m[i] = math.Min(m[i], mult[i])
		}
	}
	return m
}

// scaled returns base costs w under multiplier m — the one place a profile
// scales a cost. A nil m means unscaled and returns w itself.
func scaled(w, m vec.Costs) vec.Costs {
	if m == nil {
		return w
	}
	out := make(vec.Costs, len(w))
	for i := range w {
		out[i] = w[i] * m[i]
	}
	return out
}

// Network is a multi-cost network with time-dependent edge costs. Attach
// profiles with SetProfile, then query. Every query answers from the version
// it loads when it starts: the network's topology compiled once into a flat
// overlay, one cost vector per elementary interval, and a pruning index
// built on the version's first WithinAt. Queries and SetProfile calls are
// safe from any number of goroutines; a query that overlaps an edit answers
// for the version before or after it.
type Network struct {
	base *graph.Graph
	// topo is base's CSR compilation, built once by New and shared by the
	// interval views of every version.
	topo *flat.Source

	// cache, when non-nil, memoizes instant-query results keyed by
	// elementary interval; see EnableResultCache.
	cache *rescache.Cache

	// cur is the published version. writeMu serialises the edits that
	// derive and replace it; queries never take it.
	cur     atomic.Pointer[version]
	writeMu sync.Mutex
}

// version is one immutable profile configuration: the profiles, the
// ascending global breakpoints, one flat.View per elementary interval
// (interval k is active on [times[k-1], times[k]), interval 0 before
// times[0]), and a pruning index admissible under every interval's cost
// surface, built on first use.
//
// Each interval matrix is |E|·d float64s: an edit that moves the axis
// allocates |E|·d·(breakpoints+1) of them, one that keeps it |E|·d per
// interval it changes. That is the right trade when profiles share a small
// set of instants (rush hours, tariff windows — the modelled workloads);
// networks where every edge contributes distinct breakpoints would want
// sparse per-interval patches over the base costs instead (see ROADMAP).
type version struct {
	profiles map[graph.EdgeID]Profile
	times    []float64
	ov       *flat.Overlay
	// axis numbers times for the result cache's keys: it advances whenever
	// times differs from the predecessor's, which renumbers the intervals.
	axis uint64

	boundsOnce sync.Once
	bounds     *index.Bounds
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

// costAt returns edge e of g's cost vector at instant t: the base vector,
// scaled component-wise when a profile interval covers t.
func (v *version) costAt(g *graph.Graph, e graph.EdgeID, t float64) vec.Costs {
	w := g.Edge(e).W
	if p, ok := v.profiles[e]; ok {
		return scaled(w, p.At(t))
	}
	return w
}

// floorIndex returns the version's pruning index, building it on the first
// call: one index over each edge's lowest cost at any instant. Every
// interval's costs are at least that, so the bounds are admissible under
// every interval's cost surface; index.SlackFactor absorbs summation order
// as for any index.
func (v *version) floorIndex(g *graph.Graph) *index.Bounds {
	v.boundsOnce.Do(func() {
		lowest := make([]vec.Costs, g.NumEdges())
		for e := range lowest {
			lowest[e] = g.Edge(graph.EdgeID(e)).W
		}
		for e, p := range v.profiles {
			lowest[e] = scaled(lowest[e], p.floor())
		}
		v.bounds = index.FromCosts(g, func(e graph.EdgeID, i int) float64 { return lowest[e][i] })
	})
	return v.bounds
}

// New wraps a static network; edges without profiles keep their base costs
// at all times. It compiles the topology, which every version shares.
func New(g *graph.Graph) *Network {
	n := &Network{base: g, topo: flat.Compile(g)}
	ov, err := flat.NewOverlay(n.topo, 1, func(_ int, e graph.EdgeID) vec.Costs { return g.Edge(e).W })
	if err != nil {
		panic(err) // unreachable: graph.Build validated every cost vector
	}
	n.cur.Store(&version{profiles: map[graph.EdgeID]Profile{}, ov: ov})
	return n
}

// Base returns the underlying static graph.
func (n *Network) Base() *graph.Graph { return n.base }

// EnableResultCache attaches a serving-layer result cache to the network's
// instant queries (*At); period sweeps always execute. Attach it before
// queries and edits start. Several networks and executors may share one
// cache: time-dependent entries carry interval and class tags that static
// entries never match, so SetProfile invalidation cannot touch them.
func (n *Network) EnableResultCache(c *rescache.Cache) { n.cache = c }

// SetProfile attaches a copy of p to edge e, replacing any previous profile.
// It compiles the next version and publishes it; queries already running
// finish on the version they loaded.
//
// When the global breakpoint axis is unchanged (the new profile introduces
// no new instants and retires none), the new version copies only the
// interval matrices where edge e's effective cost changed and shares every
// other one, and with a result cache attached only those intervals are
// invalidated — cached results for untouched intervals stay live across the
// edit. An edit that changes the axis renumbers the intervals: every matrix
// is refilled over the shared topology and the whole time-dependent class
// is invalidated. Static entries in a shared cache are never touched.
func (n *Network) SetProfile(e graph.EdgeID, p Profile) error {
	return n.setProfiles(map[graph.EdgeID]Profile{e: p})
}

// setProfiles validates every edit, then compiles and publishes one version
// carrying all of them, so a bulk attach refills the interval matrices once
// rather than once per edit. It replaces edits' profiles by copies.
func (n *Network) setProfiles(edits map[graph.EdgeID]Profile) error {
	for e, p := range edits {
		if int(e) >= n.base.NumEdges() {
			return fmt.Errorf("timedep: edge %d out of range (%d edges)", e, n.base.NumEdges())
		}
		p = p.clone()
		if err := p.Validate(n.base.D()); err != nil {
			return err
		}
		edits[e] = p
	}
	n.writeMu.Lock()
	defer n.writeMu.Unlock()
	cur := n.cur.Load()
	next := &version{profiles: maps.Clone(cur.profiles), axis: cur.axis}
	maps.Copy(next.profiles, edits)
	next.times = breakpointUnion(next.profiles)
	var tags []rescache.Tag
	if slices.Equal(next.times, cur.times) {
		// Interval numbering is stable: each edited edge patches exactly the
		// intervals where its cost changed, and only those are invalidated.
		next.ov = cur.ov
		for e := range edits {
			var changed []int
			next.ov, changed = next.ov.WithEdge(e, func(k int) vec.Costs { return next.costAt(n.base, e, next.start(k)) })
			for _, k := range changed {
				tags = append(tags, rescache.IntervalTag(k))
			}
		}
	} else {
		ov, err := flat.NewOverlay(n.topo, len(next.times)+1, func(k int, e graph.EdgeID) vec.Costs {
			return next.costAt(n.base, e, next.start(k))
		})
		if err != nil {
			return err
		}
		next.ov = ov
		next.axis++
		tags = []rescache.Tag{rescache.ClassTimeDep}
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
	set := make(map[float64]bool)
	for _, p := range profiles {
		for _, t := range p.Times {
			set[t] = true
		}
	}
	return slices.Sorted(maps.Keys(set))
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

// Snapshot materialises the static multi-cost network in effect at instant
// t. It is the reference implementation the overlay fast path is tested
// against — every query entry point answers from the compiled overlay
// instead, and per-query callers should never need a snapshot.
func (n *Network) Snapshot(t float64) (*graph.Graph, error) {
	ver := n.cur.Load()
	b := graph.NewBuilder(n.base.D(), n.base.Directed())
	for v := 0; v < n.base.NumNodes(); v++ {
		node := n.base.Node(graph.NodeID(v))
		b.AddNode(node.X, node.Y)
	}
	for e := 0; e < n.base.NumEdges(); e++ {
		edge := n.base.Edge(graph.EdgeID(e))
		b.AddEdge(edge.U, edge.V, ver.costAt(n.base, graph.EdgeID(e), t))
	}
	for f := 0; f < n.base.NumFacilities(); f++ {
		fac := n.base.Facility(graph.FacilityID(f))
		b.AddFacility(fac.Edge, fac.T)
	}
	return b.Build()
}

// IntervalResult is one maximal time interval with a constant preferred set.
type IntervalResult struct {
	From, To float64
	Result   *core.Result
}

// instant runs one static query against the interval view covering t: the
// shared prologue of every *At entry point — location validation, version
// load, pruning index for within, ctx binding. spec carries the
// kind-specific key fields; with a cache attached, the query is keyed by
// elementary interval (every instant inside the interval shares one entry)
// and tagged with its interval plus the time-dependent class.
func (n *Network) instant(ctx context.Context, loc graph.Location, t float64, opt core.Options, spec rescache.KeySpec, query func(*flat.View, core.Options) (*core.Result, error)) (*core.Result, error) {
	if err := loc.Validate(n.base); err != nil {
		return nil, err
	}
	v := n.cur.Load()
	k := v.intervalAt(t)
	run := func() (*core.Result, error) {
		if opt.Bounds == nil && spec.Kind == rescache.KindWithin {
			// Only within reads an index, so only a within that runs builds
			// it. The version's own, never the static network's: bounds built
			// for the base costs are inadmissible once a multiplier drops
			// below 1. Pruning does not change results, so the cache key
			// needs no extra field.
			opt.Bounds = v.floorIndex(n.base)
		}
		return query(v.ov.Interval(k), opt.BindContext(ctx))
	}
	if n.cache != nil && opt.OnResult == nil {
		spec.Interval = k
		spec.Axis = v.axis
		spec.Engine = byte(opt.Engine)
		spec.NoEnhancements = opt.NoEnhancements
		spec.Edge = loc.Edge
		spec.T = loc.T
		if key, scale, ok := spec.Key(); ok {
			val, _, err := n.cache.Do(key, func() (rescache.Value, []rescache.Tag, error) {
				res, err := run()
				if err != nil {
					return rescache.Value{}, nil, err
				}
				tags := []rescache.Tag{rescache.IntervalTag(k), rescache.ClassTimeDep}
				if n.cur.Load() != v {
					// An edit published since v was loaded may have stamped
					// its tags before Do's version snapshot, where they
					// cannot mark this entry stale: answer from v, store
					// nothing.
					tags = append(tags, rescache.Superseded)
				}
				return rescache.Value{Result: res, Scale: scale}, tags, nil
			})
			if err != nil {
				return nil, err
			}
			return val.ResultAt(scale), nil
		}
	}
	return run()
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

// overPeriod sweeps the elementary intervals intersecting [from, to),
// running one static query per interval against its overlay view and
// merging adjacent intervals with identical preferred sets.
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
	var out []IntervalResult
	for i, start := range breaks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := to
		if i+1 < len(breaks) {
			end = breaks[i+1]
		}
		res, err := query(v.ov.Interval(v.intervalAt(start)), opt)
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

// CostAt returns edge e's effective cost vector at instant t.
func (n *Network) CostAt(e graph.EdgeID, t float64) (vec.Costs, error) {
	if int(e) >= n.base.NumEdges() {
		return nil, fmt.Errorf("timedep: edge %d out of range", e)
	}
	w := n.cur.Load().costAt(n.base, e, t).Clone()
	// Guard against NaN creep from pathological inputs.
	for _, v := range w {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("timedep: NaN cost on edge %d at t=%g", e, t)
		}
	}
	return w, nil
}
