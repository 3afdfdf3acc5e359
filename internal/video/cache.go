package video

import (
	"sync/atomic"
	"unsafe"

	"otif/internal/lru"
	"otif/internal/obs"
)

// This file implements the bounded frame cache on the per-frame hot path.
// Four kinds of derived data are cached:
//
//   - downsampled frames, keyed by (source frame identity, w, h);
//   - rendered/decoded clip frames, keyed by (source identity, index);
//   - proxy score vectors, keyed by (frame identity, model identity,
//     background identity);
//   - full-frame detections, keyed by (frame identity, detector identity),
//     where the detector identity stands for its configuration, background
//     model and classifier.
//
// What pays for it is repeated reading: the tuner evaluates many
// configurations over one validation set (the benchmark's tune-warm), every
// evaluation re-reads the same clip frames, and a stable frame identity is
// what lets their downsamples, their proxy scores and their detections hit
// too. The tuner's caching phase scores every validation frame under every
// proxy model and runs every detection-grid cell over it; each candidate
// that runs a proxy or the same full-frame detector, and every later RunSet
// of the pick over the same clips, reads those back instead of recomputing
// them.
//
// What does not: a clip read once. One configuration asks for one proxy
// resolution and one detector resolution, so a cold extraction
// (extract-dense, extract-tuned) misses on every clip frame, on each
// frame's downsamples and on each frame's scores (with a proxy) or
// detections (without one): a cold frame adds one more small entry, which
// is evicted unread. Its hits are the second and later windows of one frame
// under DetectWindows, beside tens of thousands of evictions. Whether
// single-pass readers should bypass the cache is an open ROADMAP question,
// separate from what is cached.
//
// The mechanism is internal/lru, shared with the store's result cache: one
// LRU list under one mutex, fills coalesced per key. This file chooses the
// keys and what an entry is charged. Cached frames, score vectors and
// detections are shared and MUST be treated as read-only by all callers;
// every caller in this repository already does. Entries are keyed by
// process-unique uint64 identities rather than pointers, so the cache never
// pins a source object and a recycled allocation can never be confused with
// the object the entry was built from. All cached computations are
// deterministic functions of their key, so results are bit-identical with
// the cache enabled, disabled, or thrashing.

// CacheStats is a snapshot of cache effectiveness counters. A lookup that
// waited for another goroutine's fill of the same key counts as a miss.
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

// cacheEntryOverhead approximates the bookkeeping bytes per entry (entry
// struct, map slot, frame or slice header) charged against the budget on
// top of the payload.
const cacheEntryOverhead = 160

// keyKind says which kind of derived buffer a cacheKey names, so keys of
// different kinds never compare equal whatever their identities.
type keyKind uint8

const (
	kindDownsample keyKind = iota + 1
	kindClipFrame
	kindScores
	kindDetections
)

// cacheKey identifies one derived buffer. owner is the process-unique id
// of the source object: a Frame for downsamples, scores and detections, a
// CachedSource for clip frames.
type cacheKey struct {
	kind  keyKind
	owner uint64
	a, b  uint64 // (w, h), (frame index, 0), (model id, background frame id) or (detector id, 0)
}

func downsampleKey(frame uint64, w, h int) cacheKey {
	return cacheKey{kind: kindDownsample, owner: frame, a: uint64(w), b: uint64(h)}
}

func clipFrameKey(source uint64, idx int) cacheKey {
	return cacheKey{kind: kindClipFrame, owner: source, a: uint64(idx)}
}

func scoresKey(frame, model, bg uint64) cacheKey {
	return cacheKey{kind: kindScores, owner: frame, a: model, b: bg}
}

func detectionsKey(frame, detector uint64) cacheKey {
	return cacheKey{kind: kindDetections, owner: frame, a: detector}
}

// fillCounters counts one kind's fills: entries computed on a miss, and
// the bytes they were charged against the budget (cacheEntryOverhead
// included). A hit does no work and counts nothing.
type fillCounters struct{ fills, bytes *obs.Counter }

// fillsBy holds each key kind's fill counters, indexed by keyKind.
var fillsBy = [...]fillCounters{
	kindDownsample: newFillCounters("downsamples"),
	kindClipFrame:  newFillCounters("clip_frames"),
	kindScores:     newFillCounters("scores"),
	kindDetections: newFillCounters("detections"),
}

func newFillCounters(kind string) fillCounters {
	return fillCounters{
		fills: obs.Default.Counter("video.fills." + kind),
		bytes: obs.Default.Counter("video.fill_bytes." + kind),
	}
}

// filled counts a fill of kind k that the LRU is charged cost for, and
// passes the entry through: every fill returns through it.
func filled(k keyKind, v cached, cost int64) (cached, int64) {
	fillsBy[k].fills.Inc()
	fillsBy[k].bytes.Add(cost)
	return v, cost
}

// cached is the one value type the LRU holds: a frame (downsamples and clip
// frames), a score vector or a detection slice, as the key's kind says.
// video cannot name the detector's Detection type, so detections are held
// as an any that detections asserts back.
type cached struct {
	frame  *Frame
	scores []float64
	dets   any
}

// Cache is a bounded LRU frame cache. Construct with NewCache; a nil *Cache
// is a valid "disabled" cache whose lookups always compute.
type Cache struct {
	lru *lru.Cache[cacheKey, cached]
}

// NewCache creates a cache with the given byte budget. An entry larger than
// the whole budget is returned uncached.
func NewCache(budgetBytes int64) *Cache {
	return &Cache{lru: lru.New[cacheKey, cached](budgetBytes)}
}

// frameEntry is what a frame fill of kind k hands the LRU: the frame and
// its cost, the pixels plus cacheEntryOverhead.
func frameEntry(k keyKind, f *Frame) (cached, int64) {
	return filled(k, cached{frame: f}, int64(len(f.Pix))+cacheEntryOverhead)
}

// scoresEntry is what a score fill hands the LRU: the scores and their
// cost, 8 bytes per cell plus cacheEntryOverhead.
func scoresEntry(s []float64) (cached, int64) {
	return filled(kindScores, cached{scores: s}, 8*int64(len(s))+cacheEntryOverhead)
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
	return c.lru.Get(downsampleKey(f.id, w, h),
		func() (cached, int64) { return frameEntry(kindDownsample, f.Downsample(w, h)) }).frame
}

// Scores returns fill's per-cell proxy scores for frame f under the model
// with process-unique identity model and the background frame bg (nil for
// none), serving repeats from the cache. fill must be a deterministic
// function of those three identities. A zero model id, or a frame or
// background without an identity, is computed uncached. The result is
// shared: callers must not mutate it.
func (c *Cache) Scores(f *Frame, model uint64, bg *Frame, fill func() []float64) []float64 {
	var bgID uint64
	if bg != nil {
		bgID = bg.id
	}
	if c == nil || f.id == 0 || model == 0 || (bg != nil && bgID == 0) {
		return fill()
	}
	return c.lru.Get(scoresKey(f.id, model, bgID),
		func() (cached, int64) { return scoresEntry(fill()) }).scores
}

// detections is Scores for full-frame detections: it returns fill's
// detections of frame f under the detector with process-unique identity
// detector, serving repeats from c. fill must be a deterministic function
// of the two identities. A zero detector id, or a frame without an
// identity, is computed uncached. An entry is charged the size of its items
// plus cacheEntryOverhead. The result is shared: callers must not mutate
// it. Go has no generic methods, hence a function of c.
func detections[T any](c *Cache, f *Frame, detector uint64, fill func() []T) []T {
	if c == nil || f.id == 0 || detector == 0 {
		return fill()
	}
	v := c.lru.Get(detectionsKey(f.id, detector), func() (cached, int64) {
		d := fill()
		return filled(kindDetections, cached{dets: d}, int64(unsafe.Sizeof(*new(T)))*int64(len(d))+cacheEntryOverhead)
	})
	// A waiter on a fill that panicked gets the zero value: no slice.
	d, _ := v.dets.([]T)
	return d
}

// Stats returns one consistent snapshot of all cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	s := c.lru.Stats()
	return CacheStats{
		Hits:      uint64(s.Hits),
		Misses:    uint64(s.Fills + s.Waits),
		Evictions: uint64(s.Evictions),
		Bytes:     s.Bytes,
		Entries:   s.Entries,
	}
}

// DefaultCacheBytes is the byte budget of the process-wide frame cache.
// Only tests set another, through SetCacheBudget.
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

// CachedScores is Cache.Scores through the process-wide cache (computing
// directly when caching is disabled).
func CachedScores(f *Frame, model uint64, bg *Frame, fill func() []float64) []float64 {
	return globalCache.Load().Scores(f, model, bg, fill)
}

// CachedDetections returns fill's full-frame detections of f under the
// detector with process-unique identity detector through the process-wide
// cache (computing directly when caching is disabled). The result is
// shared: callers must not mutate it.
func CachedDetections[T any](f *Frame, detector uint64, fill func() []T) []T {
	return detections(globalCache.Load(), f, detector, fill)
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
	return c.lru.Get(clipFrameKey(s.id, idx),
		func() (cached, int64) { return frameEntry(kindClipFrame, s.src.Frame(idx)) }).frame
}

// Len implements FrameSource.
func (s *CachedSource) Len() int { return s.src.Len() }

// FPS implements FrameSource.
func (s *CachedSource) FPS() int { return s.src.FPS() }
