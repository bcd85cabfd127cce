package engine

import "mcn/internal/rescache"

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
