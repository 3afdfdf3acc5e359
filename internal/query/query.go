// Package query is OTIF's post-processing query engine. After the pipeline
// extracts object tracks from video, every query in the paper — track
// counts, path (turning-movement) breakdowns, frame-level count / region /
// hot spot limit queries, hard-braking search, traffic volume — is answered
// by scanning the stored tracks, with no further video decoding or model
// inference. On paper-scale datasets these scans take milliseconds, which
// is the point of tracker pre-processing (§1, §4.2).
package query

import (
	"cmp"
	"math"
	"slices"

	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/obs"
)

// metScanBoxes counts detection elements examined by the linear-scan query
// implementations (BoxAt walks, dwell sweeps). The indexed store records
// the same unit under store.index_boxes, so the ratio of the two counters
// is the pruning factor the index achieves on a workload.
var metScanBoxes = obs.Default.Counter("query.scan_boxes")

// Track is one stored object track as produced by the OTIF pipeline: the
// raw detections plus the (possibly endpoint-refined) spatial path.
type Track struct {
	ID       int
	Category string
	Dets     []detect.Detection
	Path     geom.Path // refined path; falls back to detection centers
}

// FirstFrame returns the first detection's frame index, or -1.
func (t *Track) FirstFrame() int {
	if len(t.Dets) == 0 {
		return -1
	}
	return t.Dets[0].FrameIdx
}

// LastFrame returns the last detection's frame index, or -1.
func (t *Track) LastFrame() int {
	if len(t.Dets) == 0 {
		return -1
	}
	return t.Dets[len(t.Dets)-1].FrameIdx
}

// BoxAt linearly interpolates the track's box at a frame index.
func (t *Track) BoxAt(frameIdx int) (geom.Rect, bool) {
	n := len(t.Dets)
	if n == 0 || frameIdx < t.Dets[0].FrameIdx || frameIdx > t.Dets[n-1].FrameIdx {
		metScanBoxes.Inc()
		return geom.Rect{}, false
	}
	for i := 0; i+1 < n; i++ {
		if frameIdx > t.Dets[i+1].FrameIdx {
			continue
		}
		metScanBoxes.Add(int64(i) + 2)
		a, b := &t.Dets[i], &t.Dets[i+1]
		return InterpBox(a.Box, b.Box, a.FrameIdx, b.FrameIdx, frameIdx), true
	}
	metScanBoxes.Add(int64(n))
	return t.Dets[n-1].Box, true
}

// InterpBox is the one interpolation expression: the box at frameIdx
// between box a at frame fa and box b at frame fb, a itself when the two
// frames are equal. BoxAt applies it to detections, and the indexed store
// to the same boxes in its geometry column, so index-backed results are
// bit-identical to the scans.
func InterpBox(a, b geom.Rect, fa, fb, frameIdx int) geom.Rect {
	if fb == fa {
		return a
	}
	f := float64(frameIdx-fa) / float64(fb-fa)
	return geom.Rect{
		X: a.X + (b.X-a.X)*f,
		Y: a.Y + (b.Y-a.Y)*f,
		W: a.W + (b.W-a.W)*f,
		H: a.H + (b.H-a.H)*f,
	}
}

// Context carries the clip geometry queries need.
type Context struct {
	FPS        int
	NomW, NomH int
	Frames     int // clip length in frames
}

// SepFrames converts a separation in seconds to frames at the clips' rate
// for a limit query. Two frames of one clip are never Frames apart, so a
// longer separation asks for the same thing and is clamped to Frames: the
// conversion stays defined for any input (+Inf, 1e300). NaN and negative
// separations count as 0.
func (c Context) SepFrames(sec float64) int {
	f := sec * float64(c.FPS)
	if !(f > 0) {
		return 0
	}
	return int(min(f, float64(c.Frames)))
}

// ---- Object track queries (§4.1) ----

// CountTracks returns the number of tracks of the given category (all
// categories when cat is empty). This is the paper's track count query
// (Amsterdam, Jackson).
func CountTracks(tracks []*Track, cat string) int {
	n := 0
	for _, t := range tracks {
		if cat == "" || t.Category == cat {
			n++
		}
	}
	return n
}

// Movement is one labeled spatial pattern for path breakdown queries: a
// reference path through the scene (typically a lane of the camera's road
// network).
type Movement struct {
	Name string
	Path geom.Path
}

// ClassifyPath assigns a track path to the best-matching movement by the
// summed distance between the track's endpoints and the movement's
// endpoints, requiring both within maxEndpointDist; it returns "" when no
// movement matches. Endpoint matching is what makes reduced-rate tracks
// need refinement (§3.4).
func ClassifyPath(p geom.Path, movements []Movement, maxEndpointDist float64) string {
	if len(p) == 0 {
		return ""
	}
	return ClassifyEnds(p[0], p[len(p)-1], movements, maxEndpointDist)
}

// ClassifyEnds is ClassifyPath for a non-empty path given by its first and
// last points, all the classification reads of it.
func ClassifyEnds(start, end geom.Point, movements []Movement, maxEndpointDist float64) string {
	bestName := ""
	bestDist := math.Inf(1)
	for _, m := range movements {
		if len(m.Path) == 0 {
			continue
		}
		ds := start.Dist(m.Path[0])
		de := end.Dist(m.Path[len(m.Path)-1])
		if ds > maxEndpointDist || de > maxEndpointDist {
			continue
		}
		if d := ds + de; d < bestDist {
			bestDist = d
			bestName = m.Name
		}
	}
	return bestName
}

// PathBreakdown counts tracks of the given category per movement name
// (the turning movement count query of §4.1). Tracks that match no
// movement are omitted.
func PathBreakdown(tracks []*Track, cat string, movements []Movement, maxEndpointDist float64) map[string]int {
	out := make(map[string]int, len(movements))
	for _, m := range movements {
		out[m.Name] = 0
	}
	for _, t := range tracks {
		if cat != "" && t.Category != cat {
			continue
		}
		if name := ClassifyPath(t.Path, movements, maxEndpointDist); name != "" {
			out[name]++
		}
	}
	return out
}

// ---- Frame-level limit queries (§4.2) ----

// FrameMatch is one frame returned by a limit query, with the object boxes
// that satisfied the predicate.
type FrameMatch struct {
	FrameIdx int
	Boxes    []geom.Rect
	// MinDuration is the smallest remaining-track duration among the
	// matched boxes' tracks, used to rank candidate frames (OTIF returns
	// frames whose visible tracks have the highest minimum duration,
	// §4.2).
	MinDuration int
}

// FramePredicate evaluates a frame-level predicate against the boxes
// visible in a frame, returning the satisfying boxes and whether the frame
// matches.
type FramePredicate interface {
	Eval(boxes []geom.Rect) ([]geom.Rect, bool)
}

// CountPredicate matches frames with at least N objects.
type CountPredicate struct{ N int }

// Eval implements FramePredicate.
func (p CountPredicate) Eval(boxes []geom.Rect) ([]geom.Rect, bool) {
	if len(boxes) >= p.N {
		return boxes, true
	}
	return nil, false
}

// RegionPredicate matches frames with at least N objects whose centers lie
// in a polygonal region.
type RegionPredicate struct {
	Region geom.Polygon
	N      int
}

// Eval implements FramePredicate.
func (p RegionPredicate) Eval(boxes []geom.Rect) ([]geom.Rect, bool) {
	var in []geom.Rect
	for _, b := range boxes {
		if p.Region.Contains(b.Center()) {
			in = append(in, b)
		}
	}
	if len(in) >= p.N {
		return in, true
	}
	return nil, false
}

// HotSpotPredicate matches frames where at least N object centers fall in
// some circular cluster of the given radius.
type HotSpotPredicate struct {
	Radius float64
	N      int
}

// Eval implements FramePredicate. It checks circles centered at each
// object center, which finds a qualifying cluster whenever one exists with
// at most a factor-2 radius relaxation (standard disk-cover argument); the
// same evaluator is applied to methods and ground truth so comparisons are
// consistent.
func (p HotSpotPredicate) Eval(boxes []geom.Rect) ([]geom.Rect, bool) {
	for _, b := range boxes {
		c := b.Center()
		var in []geom.Rect
		for _, o := range boxes {
			if c.Dist(o.Center()) <= p.Radius {
				in = append(in, o)
			}
		}
		if len(in) >= p.N {
			return in, true
		}
	}
	return nil, false
}

// VisibleBoxes returns the interpolated boxes of all tracks of the given
// category visible at frameIdx, along with the owning tracks.
func VisibleBoxes(tracks []*Track, cat string, frameIdx int) ([]geom.Rect, []*Track) {
	var boxes []geom.Rect
	var owners []*Track
	for _, t := range tracks {
		if cat != "" && t.Category != cat {
			continue
		}
		if b, ok := t.BoxAt(frameIdx); ok {
			boxes = append(boxes, b)
			owners = append(owners, t)
		}
	}
	return boxes, owners
}

// FrameSource supplies one category's visible objects frame by frame.
// The linear scan and the indexed store's sweep line both implement it, so
// the query cores below run the same logic over either and their answers
// are identical by construction.
type FrameSource interface {
	CountSource
	// Boxes materialises the boxes and owning tracks of the frame last
	// advanced to, in track order, nil when nothing is visible. The slices
	// belong to the source and are valid only until the next Advance:
	// whatever outlives the frame must be copied.
	Boxes() ([]geom.Rect, []*Track)
	// MinLastFrame returns the smallest LastFrame among the tracks visible
	// at the frame last advanced to: all a count-only limit query needs to
	// rank the frames of its run. It is asked only when Advance returned at
	// least one.
	MinLastFrame() int
	// At is the point lookup: the boxes and owners visible at any frame,
	// wherever the sweep stands, in fresh slices the caller may keep.
	At(f int) ([]geom.Rect, []*Track)
}

// CountSource supplies one category's visible count frame by frame: all
// the counting cores (AvgVisibleFrom, BusyFramesFrom) ask of a source. A
// FrameSource is one, and so is a replay of counts kept from an earlier
// sweep.
type CountSource interface {
	// Advance moves the sweep to frame f and returns how many objects are
	// visible there, n, and the first frame after f at which the visible set
	// may change, next: every frame in [f, next) sees the same tracks, so n
	// holds for the whole run. Across the calls of one sweep f only ascends
	// (it may skip frames). A track is visible exactly on [FirstFrame,
	// LastFrame], so a source can count without interpolating a box.
	Advance(f int) (n, next int)
}

// scan is the linear-scan FrameSource, the reference the indexed store is
// compared against: every frame interpolates every track of the category,
// and no run is longer than its frame.
type scan struct {
	tracks []*Track
	cat    string
	boxes  []geom.Rect
	owners []*Track
}

func (s *scan) Advance(f int) (int, int) {
	s.boxes, s.owners = VisibleBoxes(s.tracks, s.cat, f)
	return len(s.boxes), f + 1
}

func (s *scan) Boxes() ([]geom.Rect, []*Track) { return s.boxes, s.owners }

func (s *scan) MinLastFrame() int {
	last := s.owners[0].LastFrame()
	for _, t := range s.owners[1:] {
		last = min(last, t.LastFrame())
	}
	return last
}

func (s *scan) At(f int) ([]geom.Rect, []*Track) { return VisibleBoxes(s.tracks, s.cat, f) }

// LimitQuery executes a frame-level limit query over one clip's tracks:
// it scans frames, evaluates the predicate on the visible boxes, enforces
// the minimum separation between returned frames, ranks candidates by the
// minimum remaining duration of their visible tracks (descending), and
// returns up to limit matches.
func LimitQuery(tracks []*Track, cat string, pred FramePredicate, ctx Context, limit int, minSepFrames int) []FrameMatch {
	return LimitQueryFrom(&scan{tracks: tracks, cat: cat}, pred, ctx, limit, minSepFrames)
}

// LimitCand is one matching frame while a limit query ranks: 8 bytes, not
// a FrameMatch with its boxes. Frame indices and durations fit int32 (a
// duration never exceeds the math.MaxInt32 it starts from).
type LimitCand struct{ Frame, MinDur int32 }

// LimitQueryFrom is LimitQuery over any frame source: RankLimit, then
// PickLimit. The scan, the indexed store and the store's cached ranks all
// answer through these two steps, so their answers are identical by
// construction.
func LimitQueryFrom(src FrameSource, pred FramePredicate, ctx Context, limit int, minSepFrames int) []FrameMatch {
	return PickLimit(src, pred, RankLimit(src, pred, ctx, nil), limit, minSepFrames)
}

// RankLimit sweeps one clip and appends to cands, in frame order, one
// (frame, minimum duration) per frame that matches pred, then sorts the
// appended part by duration, descending, and returns the extended slice.
// The ranking depends on the clip, the category and pred, never on a
// limit or a separation, so it can be kept and picked from again. A
// CountPredicate matches every visible box, so it is decided once per run
// of frames with one visible set, and the run's frames are ranked from the
// source's count and MinLastFrame alone, without a box; other predicates
// see the boxes of every frame.
func RankLimit(src FrameSource, pred FramePredicate, ctx Context, cands []LimitCand) []LimitCand {
	from := len(cands)
	count, countOnly := pred.(CountPredicate)
	for f := 0; f < ctx.Frames; {
		n, next := src.Advance(f)
		if !countOnly {
			if minDur, ok := matchedMinDur(src, pred, f); ok {
				cands = append(cands, LimitCand{Frame: int32(f), MinDur: int32(minDur)})
			}
			f++
			continue
		}
		end := min(next, ctx.Frames)
		if n < count.N {
			f = end
			continue
		}
		// A run nothing is visible on (N <= 0) keeps the untouched rank.
		last := 0
		if n > 0 {
			last = src.MinLastFrame()
		}
		for ; f < end; f++ {
			minDur := math.MaxInt32
			if n > 0 {
				minDur = last - f
			}
			cands = append(cands, LimitCand{Frame: int32(f), MinDur: int32(minDur)})
		}
	}
	rankByDuration(cands[from:])
	return cands
}

// rankByDuration sorts candidates by minimum visible-track duration,
// descending. The sort is not stable: which of two equal durations comes
// first follows from the candidates' order and the comparisons' outcomes
// alone, and answers are pinned on it (TestGoldenQueries). slices.SortFunc
// and the sort.Slice call it replaced are one pdqsort, so they permute
// alike; TestRankByDurationMatchesSortSlice holds them to that. The
// comparator is a difference, negative exactly when a's duration is the
// larger (two int32 differ by less than an int can hold): cmp.Compare's
// two branches made the sort slower than sort.Slice's reflection swapper.
func rankByDuration(cands []LimitCand) {
	slices.SortFunc(cands, func(a, b LimitCand) int { return int(b.MinDur) - int(a.MinDur) })
}

// PickLimit answers a limit query from one clip's ranked candidates: it
// takes them best first, skipping any closer than minSepFrames to one
// already taken, until it has limit, and then looks the chosen frames up
// in src (At) for the boxes pred matches there, in frame order. The frames
// taken are kept in frame order, so a candidate is checked against the
// nearest taken frame on each side only, found by binary search: if any
// taken frame is too close, one of those two is. A separation of 0 or less
// turns no candidate away, and is not checked at all.
func PickLimit(src FrameSource, pred FramePredicate, ranked []LimitCand, limit int, minSepFrames int) []FrameMatch {
	var out []FrameMatch
	for _, c := range ranked {
		if len(out) >= limit {
			break
		}
		f := int(c.Frame)
		i, _ := slices.BinarySearchFunc(out, f, func(m FrameMatch, f int) int { return cmp.Compare(m.FrameIdx, f) })
		if minSepFrames > 0 && (i > 0 && f-out[i-1].FrameIdx < minSepFrames || i < len(out) && out[i].FrameIdx-f < minSepFrames) {
			continue
		}
		out = slices.Insert(out, i, FrameMatch{FrameIdx: f, MinDuration: int(c.MinDur)})
	}
	for i := range out {
		boxes, _ := src.At(out[i].FrameIdx)
		out[i].Boxes, _ = pred.Eval(boxes)
	}
	return out
}

// matchedMinDur evaluates pred on the boxes of frame f, the frame src was
// last advanced to, and returns the smallest remaining duration among the
// tracks of the boxes it matched (math.MaxInt32 when it matched none).
func matchedMinDur(src FrameSource, pred FramePredicate, f int) (int, bool) {
	boxes, owners := src.Boxes()
	matched, ok := pred.Eval(boxes)
	if !ok {
		return 0, false
	}
	minDur := math.MaxInt32
	for i, b := range boxes {
		// Does b equal some matched box? Try its own position first: a
		// predicate that keeps a prefix of its input hits there.
		hit := i < len(matched) && matched[i] == b
		for k := 0; !hit && k < len(matched); k++ {
			hit = matched[k] == b
		}
		if hit {
			if d := owners[i].LastFrame() - f; d < minDur {
				minDur = d
			}
		}
	}
	return minDur, true
}

// ---- Exploratory analytics queries (§3, example queries) ----

// HardBraking returns the tracks whose maximum deceleration exceeds the
// threshold (nominal px/sec^2), the paper's example query (1).
func HardBraking(tracks []*Track, ctx Context, decelThreshold float64) []*Track {
	var out []*Track
	for _, t := range tracks {
		if MaxDecel(t, ctx.FPS) >= decelThreshold {
			out = append(out, t)
		}
	}
	return out
}

// MaxDecel estimates the largest speed decrease rate along the track using
// a smoothed finite-difference of consecutive segment speeds.
func MaxDecel(t *Track, fps int) float64 {
	n := len(t.Dets)
	if n < 3 {
		return 0
	}
	var worst, prevSpeed, prevTime float64
	havePrev := false
	for i := 1; i < n; i++ {
		dt := float64(t.Dets[i].FrameIdx-t.Dets[i-1].FrameIdx) / float64(fps)
		if dt <= 0 {
			continue
		}
		speed := t.Dets[i].Box.Center().Dist(t.Dets[i-1].Box.Center()) / dt
		at := float64(t.Dets[i].FrameIdx) / float64(fps)
		if havePrev {
			if gap := at - prevTime; gap > 0 {
				if dec := (prevSpeed - speed) / gap; dec > worst {
					worst = dec
				}
			}
		}
		prevSpeed, prevTime, havePrev = speed, at, true
	}
	return worst
}

// AvgVisible returns the average number of category objects visible per
// frame over the clip (example query (3)).
func AvgVisible(tracks []*Track, cat string, ctx Context) float64 {
	return AvgVisibleFrom(&scan{tracks: tracks, cat: cat}, ctx)
}

// AvgVisibleFrom is AvgVisible over any count source. It only counts, once
// per run of frames with one visible set: no box is materialised.
func AvgVisibleFrom(src CountSource, ctx Context) float64 {
	if ctx.Frames == 0 {
		return 0
	}
	var total int
	for f := 0; f < ctx.Frames; {
		n, next := src.Advance(f)
		end := min(next, ctx.Frames)
		total += n * (end - f)
		f = end
	}
	return float64(total) / float64(ctx.Frames)
}

// BusyFrames returns the frames containing at least nA objects of catA and
// nB of catB (example query (2): "frames with at least three buses and
// three cars").
func BusyFrames(tracks []*Track, catA string, nA int, catB string, nB int, ctx Context) []int {
	return BusyFramesFrom(&scan{tracks: tracks, cat: catA}, nA, &scan{tracks: tracks, cat: catB}, nB, ctx)
}

// BusyFramesFrom is BusyFrames over any pair of count sources, counting
// only, once per run of frames on which neither visible set changes. The
// catB source is advanced only to frames where catA qualifies. The scan,
// the store's sweep and the store's cached count runs all answer through
// it.
func BusyFramesFrom(srcA CountSource, nA int, srcB CountSource, nB int, ctx Context) []int {
	var out []int
	for f := 0; f < ctx.Frames; {
		a, next := srcA.Advance(f)
		busy := a >= nA
		if busy {
			b, nextB := srcB.Advance(f)
			busy, next = b >= nB, min(next, nextB)
		}
		end := min(next, ctx.Frames)
		for ; busy && f < end; f++ {
			out = append(out, f)
		}
		f = end
	}
	return out
}
