package store

import (
	"sync"

	"otif/internal/lru"
	"otif/internal/obs"
)

// cacheBudget bounds what one result cache holds, as charged by
// resultBytes: the frame cache's default, enough for a few thousand
// track-level answers over a paper-scale segment set.
const cacheBudget int64 = 64 << 20

// cacheKey identifies one memoized result: a sealed segment, named by its
// dataset and id, plus the query's binary encoding (key.go: its kind and
// every parameter). The dataset is part of the key because one cache
// serves every dataset of a segment directory, and each dataset numbers
// its segments from seg-00000.
type cacheKey struct {
	dataset string
	segment string
	query   string
}

// CacheStats is a point-in-time snapshot of one cache's counters: answers
// served from memory, executions that computed and stored a result, and
// callers that shared a concurrent fill.
type CacheStats struct {
	Hits, Fills, Dedup int64
}

// Cache memoizes per-segment query results under a byte budget with LRU
// eviction and request coalescing (internal/lru): the first caller for a
// (segment, query) pair computes, concurrent callers for the same pair wait
// and share, later callers hit memory until the answer is evicted. Results
// are shared read-only slices — callers must not mutate what a cached query
// returns. Only sealed segments are cached (an open segment's content
// changes on every append); Sharded enforces that at the call site.
//
// Beside the answers the same LRU holds three derived kinds, charged and
// evicted like answers: each segment's pair-distance column for a category
// that CoOccurrences has been asked about (pairs.go), its ranked-candidate
// column for a category and frame predicate that LimitQuery has been asked
// about (ranks.go), and its count-run column for a category that
// BusyFrames has been asked about (runs.go). All pass one gate,
// cachedColumn.
//
// Construct with NewCache. A nil *Cache disables caching: Get then just
// runs fn.
type Cache struct {
	lru       *lru.Cache[cacheKey, any]
	columnMax int64 // the most a derived column may be charged

	mu        sync.Mutex
	published lru.Stats // what the store.cache.* series have been told
}

// columnShare bounds one derived column to cacheBudget/columnShare bytes
// (4 MiB). A column is charged against the budget that also holds the
// answers it saves, and it costs about one uncached call (a pair column
// two to three pair walks) to build, so it only pays while it stays held: a
// sixteenth keeps one category's pair columns over a paper-scale archive
// (3.2 MB a segment of 8 clips at 33 pairs a frame) beside the answers, and
// turns away a column that would push out most of the cache at once and be
// pushed out in turn before its next use.
const columnShare = 16

// cachedColumn is the result cache's one gate for derived columns. It
// returns a sealed segment's column under key, built by the first call
// that asks for it, or nil when the caller should answer without one: for a
// segment that is not sealed or not cached, and when the column would be
// charged more than the cache's columnMax. plan reports that charge, or a
// bound on it, before anything is built, and how to build the column. A
// refusal is cached as a nil column, so the size is counted once.
// Concurrent first calls share one build (Cache.fill); the scatter the
// call is part of publishes the counters.
func cachedColumn[C *pairColumn | *rankColumn | *runColumn](sh *Sharded, sg *Segment, key string, plan func() (int64, func() C)) C {
	c := sh.cache
	if !sg.sealed || c == nil {
		return nil
	}
	return c.fill(sh.dataset, sg.id, key, func() any {
		charge, build := plan()
		if charge > c.columnMax {
			return C(nil)
		}
		return build()
	}).(C)
}

// NewCache returns an empty cache of cacheBudget bytes.
func NewCache() *Cache {
	return newCache(cacheBudget)
}

// newCache returns an empty cache of budget bytes, which takes columns of
// up to a columnShare of it.
func newCache(budget int64) *Cache {
	return &Cache{lru: lru.New[cacheKey, any](budget), columnMax: budget / columnShare}
}

// Get returns the memoized result for (dataset, segment, query), running fn
// to fill it on first use, and publishes the cache's counters. Errors are
// not part of the contract — query execution over an in-memory segment
// cannot fail — so fn returns only a value.
func (c *Cache) Get(dataset, segment, query string, fn func() any) any {
	if c == nil {
		return fn()
	}
	defer c.publish()
	return c.fill(dataset, segment, query, fn)
}

// lookup returns the result held for (dataset, segment, query), counted as
// a hit, or false, counted nowhere, when there is none yet (lru.Lookup).
// It publishes nothing: a scatter probes every segment and publishes once.
func (c *Cache) lookup(dataset, segment, query string) (any, bool) {
	return c.lru.Lookup(cacheKey{dataset, segment, query})
}

// fill is Get without the publish: it charges a result resultBytes plus
// the key's own bytes, since the query part carries request parameters
// verbatim (a category, a region), so a key can be far larger than the
// answer it maps to.
func (c *Cache) fill(dataset, segment, query string, fn func() any) any {
	return c.lru.Get(cacheKey{dataset, segment, query}, func() (any, int64) {
		v := fn()
		return v, resultBytes(v) + int64(len(dataset)+len(segment)+len(query))
	})
}

// The store.cache.* series are process-wide sums over every cache: hits,
// fills, dedup (callers that shared a concurrent fill) and evictions count
// events; bytes and entries are what the caches hold. A cache dropped whole
// (an ended ingest session's live store) is not subtracted from the last
// two.
var (
	metCacheHits      = obs.Default.Counter("store.cache.hits")
	metCacheFills     = obs.Default.Counter("store.cache.fills")
	metCacheDedup     = obs.Default.Counter("store.cache.dedup")
	metCacheEvictions = obs.Default.Counter("store.cache.evictions")
	metCacheBytes     = obs.Default.Gauge("store.cache.bytes")
	metCacheEntries   = obs.Default.Gauge("store.cache.entries")
)

// publish adds what changed in this cache since the last call to the
// process-wide series.
func (c *Cache) publish() {
	c.mu.Lock()
	s, p := c.lru.Stats(), c.published
	c.published = s
	c.mu.Unlock()
	metCacheHits.Add(s.Hits - p.Hits)
	metCacheFills.Add(s.Fills - p.Fills)
	metCacheDedup.Add(s.Waits - p.Waits)
	metCacheEvictions.Add(s.Evictions - p.Evictions)
	metCacheBytes.Add(float64(s.Bytes - p.Bytes))
	metCacheEntries.Add(float64(s.Entries - p.Entries))
}

// Stats snapshots the cache's own counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	s := c.lru.Stats()
	return CacheStats{Hits: s.Hits, Fills: s.Fills, Dedup: s.Waits}
}

// Len reports how many entries are memoized or in flight: (segment, query)
// answers and derived columns.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return int(c.lru.Stats().Entries)
}
