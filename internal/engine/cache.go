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

// cacheKind is k as a cache key byte, or 0 for the kinds the cache
// does not key (the multi-source kinds), which Cache.Query then runs
// uncached.
func cacheKind(k Kind) byte {
	switch k {
	case Skyline:
		return rescache.KindSkyline
	case TopK:
		return rescache.KindTopK
	case Nearest:
		return rescache.KindNearest
	case Within:
		return rescache.KindWithin
	}
	return 0
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
