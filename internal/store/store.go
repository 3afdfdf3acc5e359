// Package store is OTIF's indexed track store: the query-side counterpart
// of the pre-processing pipeline. A Store wraps one loaded track set with
// four read-only indexes built once per clip —
//
//   - a temporal interval index in a flat sorted-endpoints layout (track
//     first/last frames sorted twice, by start and by end, as parallel
//     int32 arrays). Frame-level queries walk both arrays once per clip as
//     a sweep line (tracks enter at their first frame and leave after
//     their last); the point lookup behind VisibleBoxes, and behind the
//     few frames a limit query finally returns, answers "which tracks are
//     visible at frame f" by enumerating the smaller of the start-prefix
//     and the end-suffix (clipIndex.active);
//
//   - each track's bounding extent (the union of its detection boxes,
//     which contains every interpolated box), so region queries prune
//     tracks that can never place a box center inside the region with one
//     rectangle test per track;
//
//   - per-category postings lists, so category-filtered queries never
//     visit tracks of other categories;
//
//   - two columns of per-track summaries, the median speed and the maximum
//     deceleration, so Speeding and HardBraking are one comparison per track
//     over a contiguous []float64 and never visit a detection.
//
// Query execution shares the scan implementations' cores (the query
// package's *From functions over a query.FrameSource, and InterpBox
// arithmetic), so every indexed result is bit-identical to the
// corresponding linear scan — the differential tests in this package assert
// element-for-element equality and TestGoldenQueries pins the answers across
// commits. CoOccurrences and DwellTime have loops of their own, held to
// their scans by those tests alone.
//
// The sweep (queries.go) hands the cores views into buffers it reuses for
// the next frame: boxes are valid until the next Advance and whatever a
// result keeps comes from the point lookup, in slices of its own. Advance
// also reports where its run ends — the next start or one past the next
// end — and the visible set is the same on every frame of the run.
// AvgVisible, BusyFrames and a CountPredicate limit query's ranking read
// only the active list (its size, and the last frames the interval index
// holds), once per run, and never interpolate a box. CoOccurrences skips
// runs with fewer than two visible and reads each active track's centre
// straight from its interpolator, which keeps its detection pair between
// frames.
//
// The index arrays hold track indices, not pointers, and are immutable
// after New returns; a Store is safe for concurrent queries.
package store

import (
	"sort"

	"otif/internal/geom"
	"otif/internal/obs"
	"otif/internal/query"
)

// Observability handles. index_boxes counts detection elements examined by
// indexed queries' interpolators (the same unit the scans record under
// query.scan_boxes; kinds that only count add nothing). A sweep's
// interpolator loads each detection of its track at most once, however
// many frames the pair it belongs to serves, so for the frame-level kinds
// it is the detections loaded, not one per frame. For DwellTime it is
// the detections of the tracks the pair walk visited, each once, whether the
// pair test then skipped the pair or not: dwell_pairs_walked counts those
// pairs and dwell_pairs_skipped the ones whose frames were never
// interpolated, so skipped / walked is what the pair test removed.
//
// Per sweep and clip, candidates_examined counts the tracks whose first
// frame the sweep line reached and candidates_kept those that also passed
// the category and region filters and entered the active list — each track
// once per sweep, not once per frame; a point lookup adds its stabbing
// query's candidates to both in the same way. region_pruned counts tracks
// the region mask turned away. kept / examined is store.index_hit_ratio.
var (
	metQueries      = obs.Default.Counter("store.queries")
	metIndexBoxes   = obs.Default.Counter("store.index_boxes")
	metCandExamined = obs.Default.Counter("store.candidates_examined")
	metCandKept     = obs.Default.Counter("store.candidates_kept")
	metRegionPruned = obs.Default.Counter("store.region_pruned")
	metPairsWalked  = obs.Default.Counter("store.dwell_pairs_walked")
	metPairsSkipped = obs.Default.Counter("store.dwell_pairs_skipped")
)

func init() {
	obs.Default.GaugeFunc("store.index_hit_ratio", func() float64 {
		ex := metCandExamined.Value()
		if ex == 0 {
			return 0
		}
		return float64(metCandKept.Value()) / float64(ex)
	})
}

// Store indexes one track set for millisecond query execution.
type Store struct {
	clips []clipIndex
	ctx   query.Context
}

// clipIndex holds one clip's flat indexes. All arrays are indexed by track
// position in the clip's slice (the "track index").
type clipIndex struct {
	tracks []*query.Track

	// Temporal interval index: starts/ends per track, plus the two
	// sorted-endpoint views. byStart[i] is the track index with the i-th
	// smallest first frame; sortedStarts[i] is that first frame (and
	// likewise for ends). Empty tracks carry start = end = -1 and are
	// never enumerated as visible.
	starts, ends []int32
	byStart      []int32
	sortedStarts []int32
	byEnd        []int32
	sortedEnds   []int32

	// Per-category postings, track indices ascending.
	cats map[string][]int32

	// bounds is each track's bounding extent (union of detection boxes).
	bounds []geom.Rect

	// Track columns: what the track-level kinds compare with a threshold,
	// query.TrackSpeed's median and query.MaxDecel at the store's frame
	// rate. Not persisted; 16 bytes a track.
	p50Speed, maxDecel []float64
}

// New builds the indexes over a loaded track set. perClip is retained (not
// copied); tracks must not be mutated afterwards.
func New(perClip [][]*query.Track, ctx query.Context) *Store {
	s := &Store{clips: make([]clipIndex, len(perClip)), ctx: ctx}
	for c, tracks := range perClip {
		s.clips[c] = buildClipIndex(tracks, ctx.FPS)
	}
	return s
}

// Context returns the clip geometry the store was built with.
func (s *Store) Context() query.Context { return s.ctx }

// Clips returns the number of indexed clips.
func (s *Store) Clips() int { return len(s.clips) }

// Tracks returns one clip's track slice (shared, read-only).
func (s *Store) Tracks(clip int) []*query.Track { return s.clips[clip].tracks }

func buildClipIndex(tracks []*query.Track, fps int) clipIndex {
	n := len(tracks)
	ci := clipIndex{
		tracks:   tracks,
		starts:   make([]int32, n),
		ends:     make([]int32, n),
		byStart:  make([]int32, n),
		byEnd:    make([]int32, n),
		cats:     make(map[string][]int32),
		bounds:   make([]geom.Rect, n),
		p50Speed: make([]float64, n),
		maxDecel: make([]float64, n),
	}
	var speeds []float64 // TrackSpeedScratch's buffer, shared by the clip's tracks
	for i, t := range tracks {
		if len(t.Dets) == 0 {
			// Inverted interval: never enumerated as visible.
			ci.starts[i], ci.ends[i] = 0, -1
		} else {
			ci.starts[i] = int32(t.FirstFrame())
			ci.ends[i] = int32(t.LastFrame())
		}
		ci.byStart[i] = int32(i)
		ci.byEnd[i] = int32(i)
		ci.cats[t.Category] = append(ci.cats[t.Category], int32(i))
		var b geom.Rect
		for _, d := range t.Dets {
			b = b.Union(d.Box)
		}
		ci.bounds[i] = b
		ci.p50Speed[i] = query.TrackSpeedScratch(t, fps, &speeds).P50
		ci.maxDecel[i] = query.MaxDecel(t, fps)
	}
	sort.Slice(ci.byStart, func(a, b int) bool {
		sa, sb := ci.starts[ci.byStart[a]], ci.starts[ci.byStart[b]]
		if sa != sb {
			return sa < sb
		}
		return ci.byStart[a] < ci.byStart[b]
	})
	sort.Slice(ci.byEnd, func(a, b int) bool {
		ea, eb := ci.ends[ci.byEnd[a]], ci.ends[ci.byEnd[b]]
		if ea != eb {
			return ea < eb
		}
		return ci.byEnd[a] < ci.byEnd[b]
	})
	ci.sortedStarts = make([]int32, n)
	ci.sortedEnds = make([]int32, n)
	for i := range ci.byStart {
		ci.sortedStarts[i] = ci.starts[ci.byStart[i]]
		ci.sortedEnds[i] = ci.ends[ci.byEnd[i]]
	}
	return ci
}

// searchInt32 returns the smallest i in [0, len(a)) with a[i] >= v, or
// len(a) — the lower bound over a sorted int32 slice.
func searchInt32(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// active appends to out the indices of tracks visible at frame f (start <=
// f <= end), ascending, enumerating whichever sorted-endpoint side is
// smaller. It reports how many candidates it examined.
func (ci *clipIndex) active(f int, out []int32) (result []int32, examined int) {
	n := len(ci.tracks)
	if n == 0 {
		return out, 0
	}
	f32 := int32(f)
	// Tracks with start <= f form a prefix of byStart; tracks with
	// end >= f form a suffix of byEnd.
	nStartLE := searchInt32(ci.sortedStarts, f32+1)
	nEndGE := n - searchInt32(ci.sortedEnds, f32)
	if nStartLE <= nEndGE {
		for _, ti := range ci.byStart[:nStartLE] {
			if ci.ends[ti] >= f32 {
				out = append(out, ti)
			}
		}
		examined = nStartLE
	} else {
		for _, ti := range ci.byEnd[n-nEndGE:] {
			if ci.starts[ti] <= f32 {
				out = append(out, ti)
			}
		}
		examined = nEndGE
	}
	sortInt32(out)
	return out, examined
}

// sortInt32 sorts a small int32 slice ascending (insertion sort: candidate
// sets are small and often nearly sorted already).
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// regionCandidates fills mask (reused when large enough) with per-track
// membership: tracks whose bounding extent meets the region's, contact and
// degenerate rectangles included. Tracks outside the mask can never place
// an interpolated box center inside the region (every interpolated box lies
// within the union of the track's detection boxes); a track with no
// detections has no extent and is never a candidate.
func (ci *clipIndex) regionCandidates(e extent, mask []bool) []bool {
	if cap(mask) < len(ci.tracks) {
		mask = make([]bool, len(ci.tracks))
	}
	mask = mask[:len(ci.tracks)]
	for ti, b := range ci.bounds {
		// ends < starts is the inverted interval of a track with no
		// detections; read here so the loop touches no Track.
		mask[ti] = ci.ends[ti] >= ci.starts[ti] && !e.apart(extent{b.X, b.Y, b.MaxX(), b.MaxY()})
	}
	return mask
}
