package store

import (
	"math"
	"slices"

	"otif/internal/geom"
	"otif/internal/query"
)

// sweep is one query call's sweep line over a clip, the store's
// query.FrameSource. As the frame ascends it walks the clip's start-sorted
// and end-sorted endpoint arrays once: a track enters the active list when
// its first frame is reached and leaves when its last frame is passed, so a
// whole sweep costs O(tracks + frames + boxes asked for) and a frame that
// only needs the visible count costs two comparisons. The active list holds
// track indices in ascending order — the order the linear scan visits — so
// entering and leaving move four bytes a track. A sweep that is asked for
// boxes (walks) also keeps, by track index, where each active track's
// interpolation stands in the clip's geometry column (clipIndex.boxAt), so a
// track's detections are walked once per sweep; the kinds that only count
// touch none. Box and owner buffers are the sweep's and are
// overwritten by the next frame.
//
// A query method makes one sweep and resets it per clip; sweeps are never
// shared between calls, so concurrent queries share no state.
type sweep struct {
	ci    *clipIndex
	cat   string
	mask  []bool // spatial pre-prune; nil = no region constraint
	walks bool   // the call asks for boxes: active tracks carry column positions

	f          int
	nextStart  int     // tracks before it in byStart have entered
	nextEnd    int     // tracks before it in byEnd have left
	active     []int32 // the visible tracks' indices, ascending
	pos        []int32 // by track index, boxAt's position for active tracks when walks
	boxes      []geom.Rect
	owners     []*query.Track
	centers    []geom.Point // pairs' buffer, one centre per active track
	dists      []float64    // a pair-distance column pairs fills; nil when it counts
	candidates []int32      // point lookups' stabbing result

	examined, kept, pruned, visited int64
	lookupExamined, lookupKept      int64 // the point lookups' candidates, apart from the sweep's
}

// newSweep returns the sweep of one call over the segment's clips, its
// active list (and its interpolation positions, when it walks) sized once
// to the largest clip's track count. Grown by doubling instead, they took
// a call a few allocations per clip, and twice as many under the race
// detector.
func (sg *Segment) newSweep(walks bool) sweep {
	n := 0
	for i := range sg.clips {
		n = max(n, len(sg.clips[i].tracks))
	}
	sw := sweep{walks: walks, active: make([]int32, 0, n)}
	if walks {
		sw.pos = make([]int32, n)
	}
	return sw
}

// reset points the sweep at the start of a clip, keeping its buffers.
func (sw *sweep) reset(ci *clipIndex, cat string, mask []bool) {
	sw.retire()
	sw.ci, sw.cat, sw.mask = ci, cat, mask
	sw.nextStart, sw.nextEnd = 0, 0
	if sw.walks && len(sw.pos) < len(ci.tracks) {
		sw.pos = make([]int32, len(ci.tracks))
	}
}

// retire empties the active list, keeping count of the detections its
// tracks' interpolation walked.
func (sw *sweep) retire() {
	for _, ti := range sw.active {
		sw.leave(ti)
	}
	sw.active = sw.active[:0]
}

// leave counts the detections a departing track's interpolation walked.
func (sw *sweep) leave(ti int32) {
	if sw.walks {
		sw.visited += sw.ci.loaded(ti, sw.pos[ti])
	}
}

// admits applies the category and region filters to a track in range.
func (sw *sweep) admits(ti int32) bool {
	if sw.cat != "" && sw.ci.tracks[ti].Category != sw.cat {
		return false
	}
	if sw.mask != nil && !sw.mask[ti] {
		sw.pruned++
		return false
	}
	return true
}

// Advance implements query.FrameSource. The visible set changes only where
// a track starts or where one has ended, so the run it reports lasts until
// the smaller of the next start and the next end + 1 in the sorted-endpoint
// arrays (of any category: a conservative bound, never a late one).
func (sw *sweep) Advance(f int) (int, int) {
	ci := sw.ci
	sw.f = f
	for sw.nextEnd < len(ci.byEnd) && int(ci.sortedEnds[sw.nextEnd]) < f {
		ti := ci.byEnd[sw.nextEnd]
		sw.nextEnd++
		if i := slices.Index(sw.active, ti); i >= 0 {
			sw.leave(ti)
			sw.active = slices.Delete(sw.active, i, i+1)
		}
	}
	for sw.nextStart < len(ci.byStart) && int(ci.sortedStarts[sw.nextStart]) <= f {
		ti := ci.byStart[sw.nextStart]
		sw.nextStart++
		sw.examined++
		// Empty tracks (end -1) and tracks a skipped stretch of frames
		// covered whole have ended already.
		if int(ci.ends[ti]) < f || !sw.admits(ti) {
			continue
		}
		sw.kept++
		i, _ := slices.BinarySearch(sw.active, ti)
		sw.active = slices.Insert(sw.active, i, ti)
		if sw.walks {
			sw.pos[ti] = -1
		}
	}
	next := math.MaxInt
	if sw.nextStart < len(ci.sortedStarts) {
		next = int(ci.sortedStarts[sw.nextStart])
	}
	if sw.nextEnd < len(ci.sortedEnds) {
		next = min(next, int(ci.sortedEnds[sw.nextEnd])+1)
	}
	return len(sw.active), next
}

// MinLastFrame implements query.FrameSource from the interval index: the
// active list is exactly the visible tracks, and ends holds their last
// frames.
func (sw *sweep) MinLastFrame() int {
	ends := sw.ci.ends
	last := ends[sw.active[0]]
	for _, ti := range sw.active[1:] {
		last = min(last, ends[ti])
	}
	return int(last)
}

// Boxes implements query.FrameSource over the sweep's own buffers. Only a
// sweep that walks may be asked.
func (sw *sweep) Boxes() ([]geom.Rect, []*query.Track) {
	if len(sw.active) == 0 {
		return nil, nil // as the scan: nil, not empty
	}
	sw.boxes, sw.owners = sw.boxes[:0], sw.owners[:0]
	for _, ti := range sw.active {
		sw.boxes = append(sw.boxes, sw.ci.boxAt(ti, &sw.pos[ti], sw.f))
		sw.owners = append(sw.owners, sw.ci.tracks[ti])
	}
	return sw.boxes, sw.owners
}

// At implements query.FrameSource's point lookup, and is all of
// VisibleBoxes: a stabbing query on the sorted endpoints (clipIndex.active)
// instead of a sweep up to f, into fresh slices.
func (sw *sweep) At(f int) ([]geom.Rect, []*query.Track) {
	cand, examined := sw.ci.active(f, sw.candidates[:0])
	sw.candidates = cand
	sw.lookupExamined += int64(examined)
	var boxes []geom.Rect
	var owners []*query.Track
	for _, ti := range cand {
		if !sw.admits(ti) {
			continue
		}
		sw.lookupKept++
		pos := int32(-1)
		boxes = append(boxes, sw.ci.boxAt(ti, &pos, f))
		owners = append(owners, sw.ci.tracks[ti])
		sw.visited += sw.ci.loaded(ti, pos)
	}
	return boxes, owners
}

// flush publishes the sweep's pruning and box-visit statistics.
func (sw *sweep) flush() {
	sw.retire()
	metIndexBoxes.Add(sw.visited)
	metCandExamined.Add(sw.examined)
	metCandKept.Add(sw.kept)
	metLookupExamined.Add(sw.lookupExamined)
	metLookupKept.Add(sw.lookupKept)
	metRegionPruned.Add(sw.pruned)
}

// eachOfCategory calls fn with the track indices of one category (every
// track when cat is empty), ascending.
func (ci *clipIndex) eachOfCategory(cat string, fn func(ti int32)) {
	if cat != "" {
		for _, ti := range ci.cats[cat] {
			fn(ti)
		}
		return
	}
	for ti := range ci.tracks {
		fn(int32(ti))
	}
}

// ---- Indexed queries (one result element per clip, like TrackSet) ----

// CountTracks counts category tracks per clip from the postings lists.
func (sg *Segment) CountTracks(cat string) []int {
	out := make([]int, len(sg.clips))
	sg.countTracks(cat, out)
	return out
}

// countTracks writes the segment's per-clip counts to the front of out.
func (sg *Segment) countTracks(cat string, out []int) {
	metQueries.Inc()
	for i := range sg.clips {
		if cat == "" {
			out[i] = len(sg.clips[i].tracks)
		} else {
			out[i] = len(sg.clips[i].cats[cat])
		}
	}
}

// PathBreakdown classifies category tracks against the movements, walking
// only the category's postings list and reading each track's path
// endpoints from their column.
func (sg *Segment) PathBreakdown(cat string, movements []query.Movement, maxEndpointDist float64) []map[string]int {
	metQueries.Inc()
	out := make([]map[string]int, len(sg.clips))
	for i := range sg.clips {
		ci := &sg.clips[i]
		m := make(map[string]int, len(movements))
		for _, mv := range movements {
			m[mv.Name] = 0
		}
		ci.eachOfCategory(cat, func(ti int32) {
			if !ci.hasPath[ti] {
				return
			}
			e := &ci.pathEnds[ti]
			if name := query.ClassifyEnds(e[0], e[1], movements, maxEndpointDist); name != "" {
				m[name]++
			}
		})
		out[i] = m
	}
	return out
}

// VisibleBoxes returns the category boxes visible at one frame of one
// clip, pruned through the temporal index.
func (sg *Segment) VisibleBoxes(clip int, cat string, frameIdx int) ([]geom.Rect, []*query.Track) {
	metQueries.Inc()
	sw := sweep{ci: &sg.clips[clip], cat: cat}
	boxes, owners := sw.At(frameIdx)
	sw.flush()
	return boxes, owners
}

// LimitQuery runs a frame-level limit query per clip through the indexes:
// query.RankLimit over the clip's sweep, then query.PickLimit.
func (sg *Segment) LimitQuery(cat string, pred query.FramePredicate, limit, minSepFrames int) [][]query.FrameMatch {
	metQueries.Inc()
	out := make([][]query.FrameMatch, len(sg.clips))
	var ranked []query.LimitCand // one buffer for every clip
	sw := sg.newLimitSweep(pred)
	sg.limitClips(&sw, cat, pred, func(i int) {
		ranked = query.RankLimit(&sw, pred, sg.ctx, ranked[:0])
		out[i] = query.PickLimit(&sw, pred, ranked, limit, minSepFrames)
	})
	return out
}

// newLimitSweep returns the sweep that ranks for pred: a CountPredicate is
// ranked without a box, every other predicate from the boxes it matches.
func (sg *Segment) newLimitSweep(pred query.FramePredicate) sweep {
	_, countOnly := pred.(query.CountPredicate)
	return sg.newSweep(!countOnly)
}

// limitClips calls fn(i) with sw reset to clip i, each clip in turn, for a
// limit query with pred, and publishes the sweep's statistics after the last.
// RegionPredicate queries additionally pre-prune candidate tracks by their
// centre extents; the predicate then sees only boxes that could satisfy
// it, which cannot change its matched set.
func (sg *Segment) limitClips(sw *sweep, cat string, pred query.FramePredicate, fn func(i int)) {
	rp, regional := pred.(query.RegionPredicate)
	ext := regionExtent(rp.Region)
	var mask []bool // nil unless regional; one buffer for every clip
	for i := range sg.clips {
		ci := &sg.clips[i]
		if regional {
			mask = ci.regionCandidates(ext, mask)
		}
		sw.reset(ci, cat, mask)
		fn(i)
	}
	sw.flush()
}

// AvgVisible averages the per-frame visible count per clip.
func (sg *Segment) AvgVisible(cat string) []float64 {
	metQueries.Inc()
	out := make([]float64, len(sg.clips))
	sw := sg.newSweep(false)
	for i := range sg.clips {
		sw.reset(&sg.clips[i], cat, nil)
		out[i] = query.AvgVisibleFrom(&sw, sg.ctx)
	}
	sw.flush()
	return out
}

// BusyFrames returns, per clip, frames with at least nA catA objects and
// nB catB objects.
func (sg *Segment) BusyFrames(catA string, nA int, catB string, nB int) [][]int {
	metQueries.Inc()
	out := make([][]int, len(sg.clips))
	swA, swB := sg.newSweep(false), sg.newSweep(false)
	for i := range sg.clips {
		swA.reset(&sg.clips[i], catA, nil)
		swB.reset(&sg.clips[i], catB, nil)
		out[i] = query.BusyFramesFrom(&swA, nA, &swB, nB, sg.ctx)
	}
	swA.flush()
	swB.flush()
	return out
}

// CoOccurrences totals frame-wise close pairs per clip: the pair walk
// (sweep.pairs) over each clip, counting with the scan's Dist <= dist.
func (sg *Segment) CoOccurrences(cat string, dist float64) []int {
	metQueries.Inc()
	out := make([]int, len(sg.clips))
	sw := sg.newSweep(true)
	for i := range sg.clips {
		sw.reset(&sg.clips[i], cat, nil)
		out[i] = sw.pairs(sg.ctx.Frames, dist)
	}
	sw.flush()
	return out
}

// pairs is query.CoOccurrences' loop over one clip, one run of frames with
// one visible set at a time. Runs with fewer than two visible tracks are
// skipped whole; on the frames of the others each active track's centre
// comes from clipIndex.boxAt, into the sweep's centres buffer, and each
// pair of centres is measured once with Dist. It returns how many of the
// distances are at most dist, as the scan counts them — unless the sweep
// carries a pair-distance column (dists not nil, pairs.go), when it
// appends every distance there instead and returns 0. Which of the two it
// does is decided once a run, not on every frame.
func (sw *sweep) pairs(frames int, dist float64) int {
	total := 0
	centers := sw.centers
	for f := 0; f < frames; {
		n, next := sw.Advance(f)
		end := min(next, frames)
		if n < 2 {
			f = end
			continue
		}
		// Sized to the active list's capacity, the buffer grows when that
		// does: once a call for a sweep from newSweep.
		centers = slices.Grow(centers[:0], cap(sw.active))[:n]
		if sw.dists != nil {
			for ; f < end; f++ {
				sw.centersAt(centers, f)
				sw.keepDists(centers)
			}
			continue
		}
		for ; f < end; f++ {
			sw.centersAt(centers, f)
			for a, c := range centers {
				for _, o := range centers[a+1:] {
					if c.Dist(o) <= dist {
						total++
					}
				}
			}
		}
	}
	sw.centers = centers
	return total
}

// centersAt fills centers with the active tracks' centres at frame f.
func (sw *sweep) centersAt(centers []geom.Point, f int) {
	for k, ti := range sw.active {
		centers[k] = sw.ci.boxAt(ti, &sw.pos[ti], f).Center()
	}
}

// keepDists appends the Dist of every pair of centres to the sweep's
// column: the distances pairs compares when it counts.
func (sw *sweep) keepDists(centers []geom.Point) {
	for a, c := range centers {
		for _, o := range centers[a+1:] {
			sw.dists = append(sw.dists, c.Dist(o))
		}
	}
}

// DwellTime returns, per clip, seconds each category track's interpolated
// center spends inside the region. regionCandidates prunes tracks whose
// centre extent cannot reach the region; a surviving track is walked one
// dwell block of detection pairs at a time (dwellWalk), a block near one of
// the region's edges one pair at a time, and only pairs that come near an
// edge are interpolated frame by frame.
func (sg *Segment) DwellTime(cat string, region geom.Polygon) []map[int]float64 {
	metQueries.Inc()
	out := make([]map[int]float64, len(sg.clips))
	w := dwellWalk{region: region, ext: regionExtent(region)}
	if w.ext != everywhere {
		w.edges = edgeExtents(region)
	}
	var mask []bool // one buffer for every clip
	for i := range sg.clips {
		ci := &sg.clips[i]
		if sg.ctx.FPS <= 0 {
			out[i] = map[int]float64{}
			continue
		}
		mask = ci.regionCandidates(w.ext, mask)
		// Nearly every track the mask keeps dwells (on query-mix, 7,374 of
		// 7,453), so the answer is sized to them and never grows.
		kept := 0
		ci.eachOfCategory(cat, func(ti int32) {
			if mask[ti] {
				kept++
			}
		})
		m := make(map[int]float64, kept)
		out[i] = m
		var pruned int64
		ci.eachOfCategory(cat, func(ti int32) {
			if !mask[ti] {
				pruned++
				return
			}
			if frames := w.frames(ci, ti); frames > 0 {
				m[ci.tracks[ti].ID] = float64(frames) / float64(sg.ctx.FPS)
			}
		})
		metRegionPruned.Add(pruned)
	}
	metIndexBoxes.Add(w.visited)
	metPairsWalked.Add(w.walked)
	metPairsSkipped.Add(w.skipped)
	metBlocksSkipped.Add(w.blocksSkipped)
	return out
}

// dwellWalk counts, track by track, the frames on which the interpolated
// box centre lies in one region, and what that cost.
type dwellWalk struct {
	region geom.Polygon
	ext    extent
	edges  []extent // nil when ext is everywhere

	visited, walked, skipped, blocksSkipped int64
}

// contains is region.Contains behind the extent's cheap rejection.
func (w *dwellWalk) contains(p geom.Point) bool {
	return w.ext.holds(p) && w.region.Contains(p)
}

// settled reports that no edge of the region comes near the span, so
// region.Contains has one value for every point in it: the even-odd parity
// is constant on a connected set no edge touches, and the ray cast computes
// it exactly for a point further from every edge it crosses than the
// crossing abscissa's rounding, which the edge boxes' margin covers.
func (w *dwellWalk) settled(span extent) bool {
	if w.edges == nil {
		return false
	}
	for _, e := range w.edges {
		if !span.apart(e) {
			return false
		}
	}
	return true
}

// frames is the scan's loop over [FirstFrame, LastFrame] regrouped by the
// detection pair that serves each frame: as in Track.BoxAt, a frame belongs
// to the first pair whose second detection is at or past it, so pair i
// serves the frames after pair i-1's up to its second detection's (none,
// when a frame index repeats). A pair whose span is apart from the region's
// extent, or settled, has one answer for all its frames and is not
// interpolated; the answer at a settled pair's second centre is also the
// answer at the next pair's first.
//
// The walk takes a dwell block of pairs at a time. The block's span holds
// every pair's, so when it is apart or settled so is each pair, and since
// consecutive pairs share a centre the whole block has one answer; its
// pairs serve the frames from the first no earlier pair serves up to its
// largest frame (capped at the track's last), all or none of which count.
// Any other block is walked pair by pair. Each detection is loaded from the
// column at most once. The track has at least one detection.
func (w *dwellWalk) frames(ci *clipIndex, ti int32) int {
	boxes, fr := ci.geometry(ti)
	if len(boxes) == 1 {
		w.visited++
		if w.contains(boxes[0].Center()) {
			return 1
		}
		return 0
	}
	frames := 0
	last := int(fr[len(fr)-1])
	next := int(fr[0])            // the first frame no earlier pair serves
	known, inside := false, false // whether, and what, the region answers at the last pair's second centre
	var from pairEnd
	at := -1 // the detection from holds, -1 for none
	b0 := int(ci.blockOff[ti])
	for k, span := range ci.blockSpan[b0:ci.blockOff[ti+1]] {
		p0 := 1 + k*dwellBlock // the block's first pair
		hi := min(int(ci.blockLast[b0+k]), last)
		if hi < next {
			known = false
			continue
		}
		switch {
		case span.apart(w.ext):
			known, inside = true, false
		case w.settled(span):
			if !known {
				if at != p0-1 {
					w.visited++
				}
				known, inside = true, w.contains(boxes[p0-1].Center())
			}
		default:
			if at != p0-1 {
				from = pairEndOf(boxes[p0-1])
				w.visited++
			}
			end := min(p0+dwellBlock, len(boxes)) // one past the block's last pair
			w.visited += int64(end - p0)
			var to pairEnd
			for i := p0; i < end; i, from = i+1, to {
				to = pairEndOf(boxes[i])
				lo, hi := next, min(int(fr[i]), last)
				if hi < lo {
					known = false
					continue
				}
				next = hi + 1
				w.walked++
				switch span := from.span(to); {
				case span.apart(w.ext):
					known, inside = true, false
				case w.settled(span):
					if !known {
						known, inside = true, w.contains(from.c)
					}
				default:
					known = false
					for f := lo; f <= hi; f++ {
						if w.contains(query.InterpBox(boxes[i-1], boxes[i], int(fr[i-1]), int(fr[i]), f).Center()) {
							frames++
						}
					}
					continue
				}
				w.skipped++
				if inside {
					frames += hi - lo + 1
				}
			}
			at = end - 1
			continue
		}
		w.blocksSkipped++
		if inside {
			frames += hi - next + 1
		}
		next = hi + 1
	}
	return frames
}

// atLeast returns the tracks whose column value reaches the threshold, in
// track order and nil when there are none, as the scans append them: the
// same >= on the same number, NaN and infinities included. It counts them
// first and allocates the answer once, at its length.
func (ci *clipIndex) atLeast(column []float64, threshold float64) []*query.Track {
	n := 0
	for _, v := range column {
		if v >= threshold {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]*query.Track, 0, n)
	for ti, v := range column {
		if v >= threshold {
			out = append(out, ci.tracks[ti])
		}
	}
	return out
}

// HardBraking returns, per clip, tracks exceeding the deceleration
// threshold, from the maximum-deceleration column.
func (sg *Segment) HardBraking(decelThreshold float64) [][]*query.Track {
	metQueries.Inc()
	out := make([][]*query.Track, len(sg.clips))
	for i := range sg.clips {
		out[i] = sg.clips[i].atLeast(sg.clips[i].maxDecel, decelThreshold)
	}
	return out
}

// Speeding returns, per clip, tracks whose median speed reaches the
// threshold, from the median-speed column.
func (sg *Segment) Speeding(threshold float64) [][]*query.Track {
	metQueries.Inc()
	out := make([][]*query.Track, len(sg.clips))
	for i := range sg.clips {
		out[i] = sg.clips[i].atLeast(sg.clips[i].p50Speed, threshold)
	}
	return out
}
