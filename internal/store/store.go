// Package store is OTIF's indexed track store: the query-side counterpart
// of the pre-processing pipeline. Every track set has one shape, a Sharded:
// an ordered list of Segments, each a contiguous clip range with read-only
// indexes and columns built once per clip —
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
//   - per-category postings lists, so category-filtered queries never
//     visit tracks of other categories;
//
//   - a geometry column: every track's detection boxes and frame indices,
//     laid out contiguously track by track (column.go). The kinds that
//     interpolate read it instead of a Track's detections. Beside it, each
//     track's centre extent (the rectangle its interpolated box centres
//     lie in), so region queries prune tracks that can never place a
//     centre inside the region with one rectangle test per track, and its
//     dwell blocks, one extent and one last frame per four detection
//     pairs, so DwellTime decides most of a track a block at a time;
//
//   - columns of per-track summaries: the path's two endpoints, all
//     PathBreakdown classifies, and the median speed and the maximum
//     deceleration, so Speeding and HardBraking are one comparison per
//     track over a contiguous []float64 and never visit a detection.
//
// Query execution shares the scan implementations' cores (the query
// package's *From functions over a query.FrameSource, query.InterpBox and
// query.ClassifyEnds), so every indexed result is bit-identical to the
// corresponding linear scan — the differential tests in this package assert
// element-for-element equality and TestGoldenQueries pins the answers across
// commits. CoOccurrences and DwellTime have loops of their own, held to
// their scans by those tests alone; so is the pair-distance column that
// CoOccurrences counts from behind a result cache, whose bucketed count
// FuzzPairColumn also holds to the linear one.
//
// The sweep (queries.go) hands the cores views into buffers it reuses for
// the next frame: boxes are valid until the next Advance and whatever a
// result keeps comes from the point lookup, in slices of its own. Advance
// also reports where its run ends — the next start or one past the next
// end — and the visible set is the same on every frame of the run.
// AvgVisible, BusyFrames and a CountPredicate limit query's ranking read
// only the active list (its size, and the last frames the interval index
// holds), once per run, and never interpolate a box. CoOccurrences' pair
// walk (sweep.pairs) skips runs with fewer than two visible and reads each
// active track's centre straight from the geometry column, where the
// track's position is kept between frames.
//
// Behind a result cache, a sealed segment asked for one category's
// co-occurrences keeps that category's pair-distance column there
// (pairs.go): the centre distance of every pair the walk measures, built
// by the same walk and sized by a count-only sweep. Each clip's distances
// are grouped by a bucket index that never decreases as the distance
// grows (about 32 distances a bucket, at most 1,024 buckets over the
// frame's diagonal, the last bucket open-ended), with the buckets' start
// offsets beside them, and a NaN distance, which no dist counts, is
// dropped. A CoOccurrences call at a distance not asked before then adds
// the buckets below dist's whole and compares dist's own bucket one
// distance at a time: every distance below that bucket is less than dist
// and every one above it greater, so the count is the walk's comparison
// on the walk's numbers, and it interpolates nothing. A column over a
// share of the cache's budget, a Sharded without a cache and a Live
// store's open segment walk the sweep. In the same way a sealed segment
// asked for a limit query keeps the category and predicate's
// ranked-candidate column (ranks.go): what query.RankLimit leaves for
// every clip, which no limit or separation changes, so a call with new
// ones only picks (query.PickLimit) and looks its frames up. And a segment
// asked for busy frames keeps each category's count-run column (runs.go):
// every clip's runs of frames with one visible count, from one count-only
// sweep, which query.BusyFramesFrom replays for any (nA, nB) as it reads
// the sweep. All three kinds of column pass one gate, cachedColumn.
//
// The index arrays hold track indices, not pointers, and are immutable
// once a clip is built; a Segment and a Sharded are safe for concurrent
// queries.
package store

import (
	"sort"

	"otif/internal/geom"
	"otif/internal/obs"
	"otif/internal/query"
)

// Observability handles. index_boxes counts detection elements examined by
// indexed queries' interpolation (the same unit the scans record under
// query.scan_boxes; kinds that only count add nothing, and so does a
// CoOccurrences answer counted from a pair-distance column). A sweep loads
// each detection of a track from the geometry column at most once, however
// many frames the pair it belongs to serves, so for the frame-level kinds
// it is the detections loaded, not one per frame. For DwellTime it is the
// detections the block walk loaded, each once: those of the blocks it
// walked pair by pair, and the first of a settled block whose answer it did
// not carry. dwell_blocks_skipped counts the blocks decided whole, whose
// pairs are neither loaded nor counted; dwell_pairs_walked counts the pairs
// of the other blocks and dwell_pairs_skipped those of them whose frames
// were never interpolated, so skipped / walked is what the pair test
// removed.
//
// Per sweep and clip, candidates_examined counts the tracks whose first
// frame the sweep line reached and candidates_kept those that also passed
// the category and region filters and entered the active list — each track
// once per sweep, not once per frame; kept / examined is
// store.index_hit_ratio. A point lookup (VisibleBoxes, and the frames a
// limit query picks) counts its stabbing query's candidates in
// lookup_candidates_examined and those that pass the filters in
// lookup_candidates_kept instead, so the ratio measures sweeps alone.
// region_pruned counts tracks the region mask turned away, in sweeps and
// lookups.
var (
	metQueries        = obs.Default.Counter("store.queries")
	metIndexBoxes     = obs.Default.Counter("store.index_boxes")
	metCandExamined   = obs.Default.Counter("store.candidates_examined")
	metCandKept       = obs.Default.Counter("store.candidates_kept")
	metLookupExamined = obs.Default.Counter("store.lookup_candidates_examined")
	metLookupKept     = obs.Default.Counter("store.lookup_candidates_kept")
	metRegionPruned   = obs.Default.Counter("store.region_pruned")
	metPairsWalked    = obs.Default.Counter("store.dwell_pairs_walked")
	metPairsSkipped   = obs.Default.Counter("store.dwell_pairs_skipped")
	metBlocksSkipped  = obs.Default.Counter("store.dwell_blocks_skipped")
)

func init() {
	obs.Default.GaugeGroup(func() map[string]float64 {
		ratio := 0.0
		if ex := metCandExamined.Value(); ex != 0 {
			ratio = float64(metCandKept.Value()) / float64(ex)
		}
		return map[string]float64{"store.index_hit_ratio": ratio}
	})
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

	// Geometry column: every track's detection boxes and frames, laid out
	// contiguously track by track; track i's are at positions
	// [off[i], off[i+1]). What the interpolating kinds read instead of a
	// Track's detections: 36 bytes a detection where a Detection is 80.
	boxes  []geom.Rect
	frames []int32
	off    []int32

	// centres bounds each track's interpolated box centres (the union of
	// its pairs' spans, or its one centre's), so region queries prune
	// tracks that can never place a centre in the region with one
	// rectangle test per track.
	centres []extent

	// Dwell blocks: per track, one entry per dwellBlock consecutive
	// detection pairs, the union of the pairs' spans and the largest frame
	// of their second detections; track i's are at [blockOff[i],
	// blockOff[i+1]).
	blockSpan []extent
	blockLast []int32
	blockOff  []int32

	// Path endpoints, all PathBreakdown reads of a track: its path's first
	// and last points, when hasPath.
	pathEnds [][2]geom.Point
	hasPath  []bool

	// Track columns: what the track-level kinds compare with a threshold,
	// query.TrackSpeed's median and query.MaxDecel at the segment's frame
	// rate. 16 bytes a track.
	p50Speed, maxDecel []float64
}

// New indexes a track set as one unsealed segment starting at clip 0: an
// index of its own, outside any Sharded. perClip is retained (not copied);
// tracks must not be mutated afterwards.
func New(perClip [][]*query.Track, ctx query.Context) *Segment {
	sg := &Segment{clips: make([]clipIndex, len(perClip)), ctx: ctx}
	for c, tracks := range perClip {
		sg.clips[c] = buildClipIndex(tracks, ctx.FPS)
	}
	return sg
}

// buildClipIndex builds one clip's indexes and columns, each in one
// exact-size allocation, so the build allocates a fixed number of slices
// per clip however many tracks and detections it holds. None of it is
// persisted: the segment format is the tracks and nothing derived from
// them.
func buildClipIndex(tracks []*query.Track, fps int) clipIndex {
	n := len(tracks)
	dets, blocks, longest := 0, 0, 0
	perCat := map[string]int{}
	for _, t := range tracks {
		dets += len(t.Dets)
		blocks += blocksOf(len(t.Dets))
		longest = max(longest, len(t.Dets))
		perCat[t.Category]++
	}
	ci := clipIndex{
		tracks:    tracks,
		starts:    make([]int32, n),
		ends:      make([]int32, n),
		byStart:   make([]int32, n),
		byEnd:     make([]int32, n),
		cats:      make(map[string][]int32, len(perCat)),
		boxes:     make([]geom.Rect, dets),
		frames:    make([]int32, dets),
		off:       make([]int32, n+1),
		centres:   make([]extent, n),
		blockSpan: make([]extent, blocks),
		blockLast: make([]int32, blocks),
		blockOff:  make([]int32, n+1),
		pathEnds:  make([][2]geom.Point, n),
		hasPath:   make([]bool, n),
		p50Speed:  make([]float64, n),
		maxDecel:  make([]float64, n),
	}
	postings := make([]int32, 0, n) // every category's list, end to end
	for cat, k := range perCat {
		ci.cats[cat] = postings[len(postings) : len(postings) : len(postings)+k]
		postings = postings[:len(postings)+k]
	}
	speeds := make([]float64, 0, max(longest-1, 0)) // TrackSpeedScratch's buffer, shared by the clip's tracks
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
		ci.addGeometry(i, t)
		if len(t.Path) > 0 {
			ci.pathEnds[i] = [2]geom.Point{t.Path[0], t.Path[len(t.Path)-1]}
			ci.hasPath[i] = true
		}
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
// membership: tracks whose centre extent meets the region's, contact and
// degenerate rectangles included. Tracks outside the mask can never place
// an interpolated box centre inside the region; a track with no detections
// (or whose frames run backwards, so no frame is its) is never a
// candidate.
func (ci *clipIndex) regionCandidates(e extent, mask []bool) []bool {
	if cap(mask) < len(ci.tracks) {
		mask = make([]bool, len(ci.tracks))
	}
	mask = mask[:len(ci.tracks)]
	for ti, c := range ci.centres {
		// ends < starts is the inverted interval; read here so the loop
		// touches no Track.
		mask[ti] = ci.ends[ti] >= ci.starts[ti] && !e.apart(c)
	}
	return mask
}
