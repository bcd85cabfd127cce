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
// every instant and serves WithinAt in every interval.
package timedep

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"

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
// profiles with SetProfile, then query; the first query compiles the
// network into a flat overlay (topology once, one cost vector per
// elementary interval, one pruning index), and subsequent queries reuse it.
// Queries from any number of goroutines are safe once profiles stop
// changing; SetProfile must not race in-flight queries.
type Network struct {
	base     *graph.Graph
	profiles map[graph.EdgeID]Profile

	// cache, when non-nil, memoizes instant-query results keyed by
	// elementary interval; see EnableResultCache.
	cache *rescache.Cache

	// mu guards the lazily compiled overlay; SetProfile invalidates it.
	mu       sync.Mutex
	compiled *compiled
	// axis is the global breakpoint union the cache's interval tags are
	// numbered against. It outlives compiled (which SetProfile nils) so
	// consecutive profile edits can keep invalidating precisely; nil means
	// no instant query has run since the numbering last changed, i.e. the
	// cache holds no live entries from this network.
	axis []float64
}

// compiled is the overlay compilation of one profile configuration: the
// ascending global breakpoints, one flat.View per elementary interval
// (views[k] is active on [times[k-1], times[k]), views[0] before times[0]),
// and one pruning index admissible under every interval's cost surface.
type compiled struct {
	times  []float64
	ov     *flat.Overlay
	bounds *index.Bounds
}

// intervalAt resolves instant t to its elementary-interval index: a binary
// search over the breakpoints, nothing else.
func (c *compiled) intervalAt(t float64) int {
	return sort.Search(len(c.times), func(i int) bool { return c.times[i] > t })
}

// New wraps a static network; edges without profiles keep their base costs
// at all times.
func New(g *graph.Graph) *Network {
	return &Network{base: g, profiles: make(map[graph.EdgeID]Profile)}
}

// Base returns the underlying static graph.
func (n *Network) Base() *graph.Graph { return n.base }

// EnableResultCache attaches a serving-layer result cache to the network's
// instant queries (*At); period sweeps always execute. Like SetProfile,
// attach it before queries start. Several networks and executors may share
// one cache: time-dependent entries carry interval and class tags that
// static entries never match, so SetProfile invalidation cannot touch them.
func (n *Network) EnableResultCache(c *rescache.Cache) { n.cache = c }

// SetProfile attaches a profile to edge e, replacing any previous one. The
// compiled overlay is invalidated; the next query recompiles.
//
// With a result cache attached, the edit invalidates incrementally: when
// the global breakpoint axis is unchanged (the new profile introduces no
// new instants and retires none), only the elementary intervals where edge
// e's effective cost actually changed are invalidated — cached results for
// untouched intervals stay live across the edit. An edit that changes the
// axis renumbers the intervals, so the whole time-dependent class is
// invalidated (the generation-stamped fallback); static entries in a
// shared cache are never touched either way.
func (n *Network) SetProfile(e graph.EdgeID, p Profile) error {
	if int(e) >= n.base.NumEdges() {
		return fmt.Errorf("timedep: edge %d out of range (%d edges)", e, n.base.NumEdges())
	}
	if err := p.Validate(n.base.D()); err != nil {
		return err
	}
	old, hadOld := n.profiles[e]
	n.profiles[e] = p
	n.mu.Lock()
	n.compiled = nil
	if n.cache == nil || n.axis == nil {
		// No cache, or no instant query ran since the numbering last
		// changed — the cache holds no entries this edit could affect.
		n.mu.Unlock()
		return nil
	}
	axis := n.axis
	if !slices.Equal(axis, n.breakpointUnion()) {
		n.axis = nil
		n.mu.Unlock()
		n.cache.Invalidate(rescache.ClassTimeDep)
		return nil
	}
	n.mu.Unlock()

	// Axis unchanged: interval numbering is stable, so diff edge e's
	// effective cost per interval and stamp exactly the changed ones.
	w := n.base.Edge(e).W
	var tags []rescache.Tag
	for k := 0; k <= len(axis); k++ {
		at := math.Inf(-1)
		if k > 0 {
			at = axis[k-1]
		}
		var oldMult vec.Costs
		if hadOld {
			oldMult = old.At(at)
		}
		if !scaled(w, oldMult).Equal(scaled(w, p.At(at))) {
			tags = append(tags, rescache.IntervalTag(k))
		}
	}
	if len(tags) > 0 {
		n.cache.Invalidate(tags...)
	}
	return nil
}

// breakpointUnion returns the sorted union of every profile's instants —
// the global time axis a compile would produce right now. Caller holds mu
// or otherwise excludes profile edits.
func (n *Network) breakpointUnion() []float64 {
	set := make(map[float64]bool)
	for _, p := range n.profiles {
		for _, t := range p.Times {
			set[t] = true
		}
	}
	return slices.Sorted(maps.Keys(set))
}

// overlay returns the compiled overlay, building it on first use: the
// global breakpoint axis is the sorted union of every profile's instants,
// each elementary interval's cost vectors are the base costs scaled by the
// multipliers in effect at the interval's start, and one pruning index
// serves every interval.
//
// Compilation is eager: memory is |E|·d·(breakpoints+1) float64s, which is
// the right trade when profiles share a small set of instants (rush hours,
// tariff windows — the modelled workloads). Networks where every edge
// contributes distinct breakpoints would want delta compilation instead
// (base costs once plus per-interval patches; see ROADMAP).
func (n *Network) overlay() (*compiled, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.compiled != nil {
		return n.compiled, nil
	}
	times := n.breakpointUnion()
	ov, err := flat.NewOverlay(n.base, len(times)+1, func(k int, e graph.EdgeID) vec.Costs {
		at := math.Inf(-1) // before the first breakpoint: base costs
		if k > 0 {
			at = times[k-1]
		}
		return n.effectiveCost(e, at)
	})
	if err != nil {
		return nil, err
	}
	// The pruning index is built over each edge's lowest cost at any
	// instant. Every interval's costs are at least that, so the bounds
	// are admissible under every interval's cost surface; index.SlackFactor
	// absorbs summation order as for any index.
	lowest := make([]vec.Costs, n.base.NumEdges())
	for e := range lowest {
		lowest[e] = n.base.Edge(graph.EdgeID(e)).W
	}
	for e, p := range n.profiles {
		lowest[e] = scaled(lowest[e], p.floor())
	}
	bounds := index.FromCosts(n.base, func(e graph.EdgeID, i int) float64 { return lowest[e][i] })
	n.compiled = &compiled{times: times, ov: ov, bounds: bounds}
	n.axis = times
	return n.compiled, nil
}

// effectiveCost returns edge e's cost vector at instant t: the base vector,
// scaled component-wise when a profile interval covers t.
func (n *Network) effectiveCost(e graph.EdgeID, t float64) vec.Costs {
	w := n.base.Edge(e).W
	if p, ok := n.profiles[e]; ok {
		return scaled(w, p.At(t))
	}
	return w
}

// Breakpoints returns the ascending instants in [from, to) where some edge
// cost changes, always starting with from itself.
func (n *Network) Breakpoints(from, to float64) []float64 {
	return breaksIn(n.breakpointUnion(), from, to)
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
	b := graph.NewBuilder(n.base.D(), n.base.Directed())
	for v := 0; v < n.base.NumNodes(); v++ {
		node := n.base.Node(graph.NodeID(v))
		b.AddNode(node.X, node.Y)
	}
	for e := 0; e < n.base.NumEdges(); e++ {
		edge := n.base.Edge(graph.EdgeID(e))
		b.AddEdge(edge.U, edge.V, n.effectiveCost(graph.EdgeID(e), t))
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
// shared prologue of every *At entry point — location validation, lazy
// overlay compile, pruning index, ctx binding. spec carries the
// kind-specific key fields; with a cache attached, the query is keyed by
// elementary interval (every instant inside the interval shares one entry)
// and tagged with its interval plus the time-dependent class.
func (n *Network) instant(ctx context.Context, loc graph.Location, t float64, opt core.Options, spec rescache.KeySpec, query func(*flat.View, core.Options) (*core.Result, error)) (*core.Result, error) {
	if err := loc.Validate(n.base); err != nil {
		return nil, err
	}
	c, err := n.overlay()
	if err != nil {
		return nil, err
	}
	k := c.intervalAt(t)
	if opt.Bounds == nil {
		// The network's own index, never the static network's: bounds built
		// for the base costs are inadmissible once a multiplier drops below
		// 1. Pruning does not change results, so the cache key needs no
		// extra field.
		opt.Bounds = c.bounds
	}
	run := func() (*core.Result, error) { return query(c.ov.Interval(k), opt.BindContext(ctx)) }
	if n.cache != nil && opt.OnResult == nil {
		spec.Interval = k
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
				return rescache.Value{Result: res, Scale: scale},
					[]rescache.Tag{rescache.IntervalTag(k), rescache.ClassTimeDep}, nil
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
	c, err := n.overlay()
	if err != nil {
		return nil, err
	}
	// Bound once for the whole sweep, so a deadline that passes inside an
	// interval stops that interval's query at its next pop.
	opt = opt.BindContext(ctx)
	breaks := breaksIn(c.times, from, to)
	var out []IntervalResult
	for i, start := range breaks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := to
		if i+1 < len(breaks) {
			end = breaks[i+1]
		}
		res, err := query(c.ov.Interval(c.intervalAt(start)), opt)
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
	w := n.effectiveCost(e, t).Clone()
	// Guard against NaN creep from pathological inputs.
	for _, v := range w {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("timedep: NaN cost on edge %d at t=%g", e, t)
		}
	}
	return w, nil
}
