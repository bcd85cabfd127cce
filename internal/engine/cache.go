package engine

import (
	"mcn/internal/core"
	"mcn/internal/graph"
	"mcn/internal/rescache"
)

// SetCache attaches a serving-layer result cache. Attach it before the
// executor starts serving queries; a nil cache (the default) disables
// caching. Several executors may share one cache — the facade points every
// executor it creates at the network's cache so Batch calls and the HTTP
// server's long-lived executor hit the same entries.
func (e *Executor) SetCache(c *rescache.Cache) { e.cache = c }

// cacheable reports whether a request may go through the result cache:
// progressive delivery (OnResult) must observe the query run, so it always
// executes.
func cacheable(req Request, opts core.Options) bool {
	return opts.OnResult == nil
}

// cacheKey canonicalizes req into a cache key; ok is false for requests the
// cache cannot key (opaque aggregates, unknown kinds).
func cacheKey(req Request, opts core.Options) (key string, scale float64, ok bool) {
	var kind byte
	switch req.Kind {
	case Skyline:
		kind = rescache.KindSkyline
	case TopK:
		kind = rescache.KindTopK
	case Nearest:
		kind = rescache.KindNearest
	case Within:
		kind = rescache.KindWithin
	default:
		return "", 0, false
	}
	spec := rescache.KeySpec{
		Kind:           kind,
		Interval:       -1,
		Engine:         byte(opts.Engine),
		NoEnhancements: opts.NoEnhancements,
		Edge:           req.Loc.Edge,
		T:              req.Loc.T,
		Agg:            req.Agg,
		K:              req.K,
		CostIdx:        req.CostIdx,
		Budget:         req.Budget,
	}
	return spec.Key()
}

// resultTags returns the invalidation tags a completed result depends on:
// the query location's edge plus every edge carrying a result facility. A
// dynamic update touching any of them kills the entry; updates elsewhere
// leave it alone (the documented relaxed-consistency contract).
func resultTags(src interface {
	FacilityEdge(graph.FacilityID) (graph.EdgeID, error)
}, loc graph.Location, res *core.Result) []rescache.Tag {
	tags := make([]rescache.Tag, 0, len(res.Facilities)+1)
	tags = append(tags, rescache.EdgeTag(loc.Edge))
	for _, f := range res.Facilities {
		if e, err := src.FacilityEdge(f.ID); err == nil {
			tags = append(tags, rescache.EdgeTag(e))
		}
	}
	return tags
}
