package store

import (
	"fmt"
	"sort"

	"otif/internal/geom"
	"otif/internal/parallel"
	"otif/internal/query"
)

// Sharded is the one shape of a queryable track set: an extracted set, a
// set loaded from segment files and an ingest session's live snapshot are
// each one. It answers every query over an ordered list of segments by
// scatter-gather: fan the query out across segments (in parallel), then
// merge deterministically. Because every dataset-wide query returns one
// result element per clip and segments tile the clip range contiguously,
// the merge is concatenation in segment order — which makes every answer
// bit-identical to the same query over one segment holding every clip, a
// property the differential tests pin for K ∈ {1,2,3,7} splits.
//
// Sealed segments route through the shared result cache (keyed by segment
// id + canonical query string); the open tail segment of a Live store is
// always recomputed. A Sharded is immutable after construction and safe
// for concurrent queries.
type Sharded struct {
	dataset string
	ctx     query.Context
	segs    []*Segment
	starts  []int // starts[i] == segs[i].start, ascending
	nclips  int
	cache   *Cache
}

// NewSharded assembles segments into one queryable dataset. Segments must
// tile [0, clips) contiguously in order, share the dataset's clip geometry
// and have distinct ids (an id keys the result cache). cache may be nil to
// disable result caching.
func NewSharded(dataset string, ctx query.Context, segs []*Segment, cache *Cache) (*Sharded, error) {
	sh := &Sharded{dataset: dataset, ctx: ctx, segs: segs, starts: make([]int, len(segs)), cache: cache}
	ids := make(map[string]bool, len(segs))
	next := 0
	for i, sg := range segs {
		if ids[sg.id] {
			return nil, fmt.Errorf("store: two segments have id %q (an id names one segment's cached answers)", sg.id)
		}
		ids[sg.id] = true
		if sg.start != next {
			return nil, fmt.Errorf("store: segment %q starts at clip %d, want %d (segments must tile the clip range)", sg.id, sg.start, next)
		}
		if sg.ctx != ctx {
			return nil, fmt.Errorf("store: segment %q context %+v differs from dataset context %+v", sg.id, sg.ctx, ctx)
		}
		sh.starts[i] = sg.start
		next += sg.Clips()
	}
	sh.nclips = next
	return sh, nil
}

// Segments returns the ordered segment list (shared, read-only).
func (sh *Sharded) Segments() []*Segment { return sh.segs }

// Cache returns the result cache (nil when caching is disabled).
func (sh *Sharded) Cache() *Cache { return sh.cache }

// Manifest describes the shard set: dataset identity plus one row per
// segment.
func (sh *Sharded) Manifest() Manifest {
	m := Manifest{Dataset: sh.dataset, Context: sh.ctx, Clips: sh.nclips, Segments: make([]SegmentInfo, len(sh.segs))}
	for i, sg := range sh.segs {
		tracks := 0
		for c := range sg.clips {
			tracks += len(sg.clips[c].tracks)
		}
		m.Segments[i] = SegmentInfo{ID: sg.id, StartClip: sg.start, Clips: sg.Clips(), Tracks: tracks, Sealed: sg.sealed}
	}
	return m
}

// Snapshot makes an immutable Sharded its own Provider.
func (sh *Sharded) Snapshot() Querier { return sh }

// Context returns the dataset clip geometry.
func (sh *Sharded) Context() query.Context { return sh.ctx }

// Clips returns the total clip count across segments.
func (sh *Sharded) Clips() int { return sh.nclips }

// locate maps a dataset clip index to (segment, clip offset within it).
func (sh *Sharded) locate(clip int) (*Segment, int) {
	i := sort.SearchInts(sh.starts, clip+1) - 1
	if i < 0 || clip >= sh.starts[i]+sh.segs[i].Clips() {
		panic(fmt.Sprintf("store: clip %d out of range [0,%d)", clip, sh.nclips))
	}
	return sh.segs[i], clip - sh.starts[i]
}

// Tracks returns one clip's track slice (shared, read-only), routed to its
// segment.
func (sh *Sharded) Tracks(clip int) []*query.Track {
	sg, off := sh.locate(clip)
	return sg.Tracks(off)
}

// VisibleBoxes routes the single-clip query to the owning segment. Point
// lookups are not cached: the cache holds whole-segment answers.
func (sh *Sharded) VisibleBoxes(clip int, cat string, frameIdx int) ([]geom.Rect, []*query.Track) {
	sg, off := sh.locate(clip)
	return sg.VisibleBoxes(off, cat, frameIdx)
}

// scatter fans run across the segments in parallel and concatenates the
// per-segment results in segment order — the deterministic merge. Sealed
// segments answer through the result cache under key; cached values are
// shared read-only slices. An empty key runs every segment uncached.
func scatter[E any](sh *Sharded, key string, run func(*Segment) []E) []E {
	parts := make([][]E, len(sh.segs))
	parallel.For(len(sh.segs), func(i int) {
		sg := sh.segs[i]
		if key != "" && sg.sealed && sh.cache != nil {
			parts[i] = sh.cache.Get(sh.dataset, sg.id, key, func() any { return run(sg) }).([]E)
		} else {
			parts[i] = run(sg)
		}
	})
	out := make([]E, 0, sh.nclips)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// resultBytes is what the result cache charges one segment's answer: the
// memory the answer itself holds, estimated from its lengths (24 bytes a
// slice header, 48 a map plus 24 or 32 an entry beside its key's bytes, 8 a
// number or a pointer). Tracks an answer points at belong to the segment
// and are not charged. Every result type scatter is instantiated with needs
// a case here, and so does each derived entry the cache holds (pairs.go);
// TestResultBytesCoversEveryKind runs the store's kinds and the derived
// entries through it.
func resultBytes(v any) int64 {
	const sliceHdr, mapHdr, word = 24, 48, 8
	n := int64(sliceHdr)
	switch r := v.(type) {
	case []int:
		n += word * int64(len(r))
	case []float64:
		n += word * int64(len(r))
	case [][]int:
		for _, c := range r {
			n += sliceHdr + word*int64(len(c))
		}
	case [][]*query.Track:
		for _, c := range r {
			n += sliceHdr + word*int64(len(c))
		}
	case []map[string]int:
		for _, m := range r {
			n += mapHdr
			for k := range m {
				n += 32 + int64(len(k))
			}
		}
	case []map[int]float64:
		for _, m := range r {
			n += mapHdr + 24*int64(len(m))
		}
	case *pairColumn:
		if r == nil { // a refused column holds nothing
			return 0
		}
		n += sliceHdr + word*int64(len(r.dists)+len(r.off))
	case [][]query.FrameMatch:
		for _, c := range r {
			n += sliceHdr
			for _, m := range c {
				n += 2*word + sliceHdr + 4*word*int64(len(m.Boxes))
			}
		}
	default:
		panic(fmt.Sprintf("store: resultBytes has no case for %T", v))
	}
	return n
}

// Canonical query keys: method name plus every parameter rendered with %#v,
// which quotes strings and names types, so no parameter can spell a
// separator and two distinct calls never share a key
// (TestCacheKeysInjective). Floats render in their shortest form, which is
// deterministic for identical values.

// CountTracks is not cached: a segment counts its tracks in about half the
// time a cache hit takes (store.count_p50_us against store.cache_hit_us on
// query-mix).
func (sh *Sharded) CountTracks(cat string) []int {
	return scatter(sh, "", func(sg *Segment) []int { return sg.CountTracks(cat) })
}

func (sh *Sharded) PathBreakdown(cat string, movements []query.Movement, maxEndpointDist float64) []map[string]int {
	key := fmt.Sprintf("breakdown|%#v|%#v|%#v", cat, maxEndpointDist, movements)
	return scatter(sh, key, func(sg *Segment) []map[string]int { return sg.PathBreakdown(cat, movements, maxEndpointDist) })
}

func (sh *Sharded) LimitQuery(cat string, pred query.FramePredicate, limit, minSepFrames int) [][]query.FrameMatch {
	// Limit semantics are per clip (each clip's sweep stops at limit), so
	// per-segment execution matches the single store exactly.
	key := fmt.Sprintf("limit|%#v|%#v|%#v|%#v", cat, pred, limit, minSepFrames)
	return scatter(sh, key, func(sg *Segment) [][]query.FrameMatch { return sg.LimitQuery(cat, pred, limit, minSepFrames) })
}

func (sh *Sharded) AvgVisible(cat string) []float64 {
	key := fmt.Sprintf("avgvisible|%#v", cat)
	return scatter(sh, key, func(sg *Segment) []float64 { return sg.AvgVisible(cat) })
}

func (sh *Sharded) BusyFrames(catA string, nA int, catB string, nB int) [][]int {
	key := fmt.Sprintf("busy|%#v|%#v|%#v|%#v", catA, nA, catB, nB)
	return scatter(sh, key, func(sg *Segment) [][]int { return sg.BusyFrames(catA, nA, catB, nB) })
}

// CoOccurrences answers a sealed segment behind the cache from its
// pair-distance column for cat (cachedPairColumn, built by the first call
// that asks), and walks the sweep where there is none.
func (sh *Sharded) CoOccurrences(cat string, dist float64) []int {
	key := fmt.Sprintf("cooccur|%#v|%#v", cat, dist)
	return scatter(sh, key, func(sg *Segment) []int {
		if col := sh.cachedPairColumn(sg, cat); col != nil {
			return col.count(dist)
		}
		return sg.CoOccurrences(cat, dist)
	})
}

func (sh *Sharded) DwellTime(cat string, region geom.Polygon) []map[int]float64 {
	key := fmt.Sprintf("dwell|%#v|%#v", cat, region)
	return scatter(sh, key, func(sg *Segment) []map[int]float64 { return sg.DwellTime(cat, region) })
}

func (sh *Sharded) HardBraking(decelThreshold float64) [][]*query.Track {
	key := fmt.Sprintf("braking|%#v", decelThreshold)
	return scatter(sh, key, func(sg *Segment) [][]*query.Track { return sg.HardBraking(decelThreshold) })
}

func (sh *Sharded) Speeding(threshold float64) [][]*query.Track {
	key := fmt.Sprintf("speeding|%#v", threshold)
	return scatter(sh, key, func(sg *Segment) [][]*query.Track { return sg.Speeding(threshold) })
}

var (
	_ Querier  = (*Sharded)(nil)
	_ Provider = (*Sharded)(nil)
)
