package baselines

import (
	"math"
	"sort"

	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/proxy"
	"otif/internal/query"
)

// FrameQuery is one frame-level limit query of §4.2: find up to Limit
// frames (at least MinSepSec apart) satisfying a predicate over the
// objects of a category.
type FrameQuery struct {
	Name     string
	Category string
	Pred     query.FramePredicate
	Limit    int
	// MinSepSec is the required separation between output frames
	// (5 seconds in the paper).
	MinSepSec float64
}

// FrameLevelResult reports a method's performance on one frame query.
type FrameLevelResult struct {
	// PreprocessTime is the one-time, query-agnostic cost (simulated s).
	PreprocessTime float64
	// QueryTime is the per-query cost (simulated seconds).
	QueryTime float64
	// Accuracy is the fraction of returned frames that truly satisfy the
	// predicate under ground truth.
	Accuracy float64
	// Returned is the number of frames produced.
	Returned int
	// DetectorApps counts query-time detector applications.
	DetectorApps int
}

// truthBoxes returns the ground-truth boxes of the category in one frame.
func truthBoxes(ct *dataset.ClipTruth, cat string, frameIdx int) []geom.Rect {
	var out []geom.Rect
	for _, gt := range ct.Truth(frameIdx) {
		if cat == "" || string(gt.Cat) == cat {
			out = append(out, gt.Box)
		}
	}
	return out
}

// TruthSatisfies reports whether frame frameIdx of the clip satisfies the
// query predicate under ground truth.
func TruthSatisfies(ct *dataset.ClipTruth, q FrameQuery, frameIdx int) bool {
	_, ok := q.Pred.Eval(truthBoxes(ct, q.Category, frameIdx))
	return ok
}

// QueryScore turns a frame's per-cell proxy scores into a query-specific
// relevance score, the role of BlazeIt's query-specific proxy model:
// count queries sum the confident cells, region queries sum only cells
// inside the region, and hot spot queries take the densest local window
// of cell scores.
func QueryScore(q FrameQuery, cellScores []float64, nomW, nomH int) float64 {
	grid := proxy.NewGrid(nomW, nomH)
	switch pred := q.Pred.(type) {
	case query.RegionPredicate:
		var sum float64
		for cy := 0; cy < grid.H; cy++ {
			for cx := 0; cx < grid.W; cx++ {
				if s := cellScores[cy*grid.W+cx]; s > 0.5 && pred.Region.Contains(proxy.CellRect(cx, cy).Center()) {
					sum += s
				}
			}
		}
		return sum
	case query.HotSpotPredicate:
		// Densest window of roughly the hot spot diameter, in cells.
		span := int(math.Ceil(2 * pred.Radius / proxy.CellSize))
		if span < 1 {
			span = 1
		}
		best := 0.0
		for cy := 0; cy+span <= grid.H; cy++ {
			for cx := 0; cx+span <= grid.W; cx++ {
				var sum float64
				for dy := 0; dy < span; dy++ {
					for dx := 0; dx < span; dx++ {
						if s := cellScores[(cy+dy)*grid.W+cx+dx]; s > 0.5 {
							sum += s
						}
					}
				}
				if sum > best {
					best = sum
				}
			}
		}
		return best
	default:
		var sum float64
		for _, s := range cellScores {
			if s > 0.5 {
				sum += s
			}
		}
		return sum
	}
}

// frameRef addresses one frame within a clip set.
type frameRef struct {
	clip  int
	frame int
}

// measureAccuracy scores returned frames against ground truth.
func measureAccuracy(clips []*dataset.ClipTruth, q FrameQuery, outputs []frameRef) float64 {
	if len(outputs) == 0 {
		return 0
	}
	ok := 0
	for _, o := range outputs {
		if TruthSatisfies(clips[o.clip], q, o.frame) {
			ok++
		}
	}
	return float64(ok) / float64(len(outputs))
}

// scored is a candidate frame with its rank score.
type scored struct {
	ref   frameRef
	score float64
}

// ranked returns the frames by descending score, ties in input order.
func ranked(frames []scored) []frameRef {
	sort.SliceStable(frames, func(i, j int) bool { return frames[i].score > frames[j].score })
	refs := make([]frameRef, len(frames))
	for i, f := range frames {
		refs[i] = f.ref
	}
	return refs
}

// selectSeparated walks candidate frames in rank order and keeps up to
// limit of them: a frame within minSepFrames of a kept frame of the same
// clip is skipped, and any other is kept if accept (nil accepts every
// frame) says so.
func selectSeparated(cands []frameRef, limit, minSepFrames int, accept func(frameRef) bool) []frameRef {
	var out []frameRef
	for _, c := range cands {
		if len(out) >= limit {
			break
		}
		okSep := true
		for _, o := range out {
			if o.clip == c.clip && max(o.frame-c.frame, c.frame-o.frame) < minSepFrames {
				okSep = false
				break
			}
		}
		if okSep && (accept == nil || accept(c)) {
			out = append(out, c)
		}
	}
	return out
}

// detectorCheck returns the query-execution check of BlazeIt and TASTI: it
// applies detector to the frame, counting the application in apps, and
// reports whether the detections satisfy q.
func detectorCheck(detector *detect.Detector, clips []*dataset.ClipTruth, q FrameQuery, apps *int) func(frameRef) bool {
	return func(r frameRef) bool {
		*apps++
		dets := detector.Detect(clips[r.clip].Clip.Frame(r.frame), r.frame)
		_, ok := q.Pred.Eval(boxesOf(dets, q.Category))
		return ok
	}
}

// boxesOf extracts the boxes of the category from detections.
func boxesOf(dets []detect.Detection, cat string) []geom.Rect {
	var out []geom.Rect
	for _, d := range dets {
		if cat == "" || d.Category == cat {
			out = append(out, d.Box)
		}
	}
	return out
}
