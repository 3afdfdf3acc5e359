package video

import (
	"sync"
	"sync/atomic"

	"otif/internal/obs"
)

// This file implements the bounded, sharded frame cache on the per-frame
// hot path. Two kinds of derived buffers are cached:
//
//   - downsampled frames, keyed by (source frame identity, w, h);
//   - rendered/decoded clip frames, keyed by (source identity, index).
//
// What pays for it is repeated reading: the tuner evaluates many
// configurations over one validation set (the benchmark's tune-warm), every
// evaluation re-reads the same clip frames, and a stable frame identity is
// what lets their downsamples hit too. The background model's
// per-resolution planes live here for the same reason.
//
// What does not: a clip read once. One configuration asks for one proxy
// resolution and one detector resolution, so a cold extraction
// (extract-dense, extract-tuned) misses on every clip frame and on each
// frame's downsamples. Its hits are the background model's planes, the
// same buffers every frame, and the second and later windows of one frame
// under DetectWindows: the 0.33-0.57 hit rate those workloads show, beside
// tens of thousands of evictions. Whether single-pass readers should
// bypass the cache is an open ROADMAP question.
//
// Cached frames are shared and MUST be treated as read-only by all
// callers; every producer in this repository already does. Entries are
// keyed by process-unique uint64 identities rather than pointers, so the
// cache never pins a source frame and a recycled allocation can never be
// confused with the object the entry was built from. Eviction is LRU per
// shard under a byte budget. All cached computations are deterministic
// functions of their key, so results are bit-identical with the cache
// enabled, disabled, or thrashing.

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Bytes, Entries          int64
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	n := s.Hits + s.Misses
	if n == 0 {
		return 0
	}
	return float64(s.Hits) / float64(n)
}

// cacheShardCount is the number of independently locked shards. Shards cut
// lock contention when parallel clip workers hit the cache together.
const cacheShardCount = 16

// cacheEntryOverhead approximates the bookkeeping bytes per entry (entry
// struct, map slot, frame header) charged against the budget on top of
// the pixel payload.
const cacheEntryOverhead = 160

// cacheKey identifies one derived buffer. owner is the process-unique id
// of the source object (a Frame for downsamples, a CachedSource for clip
// frames); ids are drawn from one shared counter and never reused, so keys
// of different kinds cannot collide.
type cacheKey struct {
	owner uint64
	a, b  int // (w, h) for downsamples; (frame index, -1) for clip frames
}

type cacheEntry struct {
	key        cacheKey
	f          *Frame
	size       int64
	prev, next *cacheEntry
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	bytes   int64
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used

	// Effectiveness counters live under the shard lock rather than as
	// cache-global atomics, so Stats can read every counter of a shard
	// together with its byte/entry state in one consistent snapshot
	// instead of four racing loads.
	hits, misses, evictions uint64
}

// Cache is a bounded, sharded LRU frame cache. The zero value is not
// usable; construct with NewCache. A nil *Cache is a valid "disabled"
// cache whose lookups always compute.
type Cache struct {
	perShard int64
	shards   [cacheShardCount]cacheShard
}

// NewCache creates a cache with the given total byte budget, split evenly
// across shards. Budgets below one entry per shard still admit single
// entries up to the shard budget; larger results are returned uncached.
func NewCache(budgetBytes int64) *Cache {
	c := &Cache{perShard: budgetBytes / cacheShardCount}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*cacheEntry)
	}
	return c
}

// mix hashes a key into a shard index (splitmix64-style finalizer).
func (k cacheKey) shard() uint64 {
	z := k.owner ^ uint64(k.a)*0x9E3779B97F4A7C15 ^ uint64(k.b)*0xC2B2AE3D27D4EB4F
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	return z % cacheShardCount
}

// get returns the cached frame for key, computing and inserting it on a
// miss. compute runs outside the shard lock; if two goroutines race on the
// same key, the first inserted entry wins and both receive it (compute is
// deterministic, so either result is bit-identical).
func (c *Cache) get(key cacheKey, compute func() *Frame) *Frame {
	if c == nil {
		return compute()
	}
	sh := &c.shards[key.shard()]
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.moveFront(e)
		sh.hits++
		sh.mu.Unlock()
		return e.f
	}
	sh.misses++
	sh.mu.Unlock()

	f := compute()
	size := int64(len(f.Pix)) + cacheEntryOverhead
	if size > c.perShard {
		return f // larger than the shard budget; serve uncached
	}
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.moveFront(e)
		sh.mu.Unlock()
		return e.f
	}
	e := &cacheEntry{key: key, f: f, size: size}
	sh.entries[key] = e
	sh.pushFront(e)
	sh.bytes += size
	for sh.bytes > c.perShard && sh.tail != nil && sh.tail != e {
		ev := sh.tail
		sh.unlink(ev)
		delete(sh.entries, ev.key)
		sh.bytes -= ev.size
		sh.evictions++
	}
	sh.mu.Unlock()
	return f
}

// Downsample returns f box-filtered to stored resolution w x h, serving
// repeats from the cache. Same-size requests return f itself. The result
// is shared: callers must not mutate it.
func (c *Cache) Downsample(f *Frame, w, h int) *Frame {
	if w == f.W && h == f.H {
		return f
	}
	if c == nil || f.id == 0 {
		return f.Downsample(w, h)
	}
	return c.get(cacheKey{owner: f.id, a: w, b: h},
		func() *Frame { return f.Downsample(w, h) })
}

// Stats returns one consistent snapshot of all cache counters: every
// shard's hit/miss/eviction counts and byte/entry state are read together
// under that shard's lock, so the returned struct never mixes a hit count
// from one moment with a miss count from another (the race that separate
// atomic loads had).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	var s CacheStats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Evictions += sh.evictions
		s.Bytes += sh.bytes
		s.Entries += int64(len(sh.entries))
		sh.mu.Unlock()
	}
	return s
}

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *cacheShard) moveFront(e *cacheEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// DefaultCacheBytes is the default byte budget of the process-wide frame
// cache (the -cache-mb flag of the command-line tools overrides it).
const DefaultCacheBytes int64 = 64 << 20

// globalCache is the process-wide cache consulted by CachedDownsample and
// CachedSource. nil means caching is disabled.
var globalCache atomic.Pointer[Cache]

func init() {
	SetCacheBudget(DefaultCacheBytes)

	// Cache effectiveness surfaces as registry gauges, evaluated lazily at
	// snapshot time so the hot path pays nothing for them. All six values
	// derive from ONE GlobalCacheStats call per snapshot, so they are
	// mutually consistent — in particular cache.hit_rate is exactly the
	// rate implied by cache.hits and cache.misses. Hit/miss counts depend
	// on worker interleaving (two workers can race to miss the same key),
	// so these gauges are observational and excluded from determinism
	// comparisons.
	obs.Default.GaugeGroup(func() map[string]float64 {
		s := GlobalCacheStats()
		return map[string]float64{
			"cache.hits":      float64(s.Hits),
			"cache.misses":    float64(s.Misses),
			"cache.evictions": float64(s.Evictions),
			"cache.bytes":     float64(s.Bytes),
			"cache.entries":   float64(s.Entries),
			"cache.hit_rate":  s.HitRate(),
		}
	})
}

// SetCacheBudget replaces the process-wide frame cache with a fresh one of
// the given byte budget, dropping all cached entries and counters. A
// budget <= 0 disables caching entirely. Results of all cached operations
// are bit-identical at any budget, including zero.
func SetCacheBudget(bytes int64) {
	if bytes <= 0 {
		globalCache.Store(nil)
		return
	}
	globalCache.Store(NewCache(bytes))
}

// CacheEnabled reports whether the process-wide frame cache is active.
func CacheEnabled() bool { return globalCache.Load() != nil }

// GlobalCacheStats returns a snapshot of the process-wide cache counters
// (zeroes when caching is disabled).
func GlobalCacheStats() CacheStats { return globalCache.Load().Stats() }

// CachedDownsample returns f box-filtered to stored resolution w x h via
// the process-wide cache (computing directly when caching is disabled).
// Same-size requests return f itself. The result is shared and must be
// treated as read-only.
func CachedDownsample(f *Frame, w, h int) *Frame {
	if w == f.W && h == f.H {
		return f
	}
	return globalCache.Load().Downsample(f, w, h)
}

// CachedSource wraps a FrameSource, memoizing its frames in the
// process-wide cache. Sources that render or decode on demand (the
// simulator worlds, codec streams) produce a fresh buffer per Frame call;
// wrapping them gives repeated reads of the same clip — e.g. the tuner
// evaluating many configurations over one validation set — a stable frame
// identity, which in turn lets the downsample cache hit across reads.
// Frames served by a CachedSource are shared and must not be mutated.
type CachedSource struct {
	src FrameSource
	id  uint64
}

// NewCachedSource wraps src. The wrapper is cheap; caching obeys the
// process-wide budget and degrades to pass-through when disabled.
func NewCachedSource(src FrameSource) *CachedSource {
	return &CachedSource{src: src, id: frameIDs.Add(1)}
}

// Frame implements FrameSource.
func (s *CachedSource) Frame(idx int) *Frame {
	c := globalCache.Load()
	if c == nil {
		return s.src.Frame(idx)
	}
	return c.get(cacheKey{owner: s.id, a: idx, b: -1},
		func() *Frame { return s.src.Frame(idx) })
}

// Len implements FrameSource.
func (s *CachedSource) Len() int { return s.src.Len() }

// FPS implements FrameSource.
func (s *CachedSource) FPS() int { return s.src.FPS() }
