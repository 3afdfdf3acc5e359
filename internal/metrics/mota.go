package metrics

import (
	"sort"

	"otif/internal/geom"
)

// TrackedBox is one (frame, box) observation of a track, used to compare
// predicted tracks against ground-truth tracks frame by frame.
type TrackedBox struct {
	FrameIdx int
	Box      geom.Rect
}

// IDTrack is a track with an identity, in either the ground-truth or the
// predicted set.
type IDTrack struct {
	ID    int
	Boxes []TrackedBox
}

// MOTAResult summarizes multi-object tracking quality in the MOTA style:
// misses (ground truth with no matched prediction), false positives
// (predictions with no matched ground truth), and identity switches
// (a ground-truth object changing its matched predicted ID between
// consecutive frames). MOTA = 1 - (misses + falsePos + switches) / gtBoxes.
type MOTAResult struct {
	Misses     int
	FalsePos   int
	IDSwitches int
	GTBoxes    int
	Matches    int
}

// MOTA returns the combined score (can be negative for very poor
// trackers, as in the standard definition).
func (r MOTAResult) MOTA() float64 {
	if r.GTBoxes == 0 {
		return 1
	}
	return 1 - float64(r.Misses+r.FalsePos+r.IDSwitches)/float64(r.GTBoxes)
}

// EvaluateMOTA compares predicted tracks against ground-truth tracks with
// greedy per-frame IoU matching at the given threshold. It is the
// "MOTA-style helper" used to sanity-check trackers outside the paper's
// count-based metrics.
func EvaluateMOTA(gt, pred []*IDTrack, iouThresh float64) MOTAResult {
	type obs struct {
		id  int
		box geom.Rect
	}
	gtByFrame := map[int][]obs{}
	predByFrame := map[int][]obs{}
	for _, t := range gt {
		for _, b := range t.Boxes {
			gtByFrame[b.FrameIdx] = append(gtByFrame[b.FrameIdx], obs{t.ID, b.Box})
		}
	}
	for _, t := range pred {
		for _, b := range t.Boxes {
			predByFrame[b.FrameIdx] = append(predByFrame[b.FrameIdx], obs{t.ID, b.Box})
		}
	}

	frames := map[int]bool{}
	for f := range gtByFrame {
		frames[f] = true
	}
	for f := range predByFrame {
		frames[f] = true
	}
	ordered := make([]int, 0, len(frames))
	for f := range frames {
		ordered = append(ordered, f)
	}
	sort.Ints(ordered)

	var res MOTAResult
	lastMatch := map[int]int{} // gt id -> last matched pred id
	for _, f := range ordered {
		gts := gtByFrame[f]
		preds := predByFrame[f]
		res.GTBoxes += len(gts)

		usedPred := make([]bool, len(preds))
		for _, g := range gts {
			bestIoU := 0.0
			bestJ := -1
			// Prefer keeping the previous identity when it still matches,
			// as the standard MOTA matching does.
			if prev, ok := lastMatch[g.id]; ok {
				for j, p := range preds {
					if !usedPred[j] && p.id == prev && g.box.IoU(p.box) >= iouThresh {
						bestJ = j
						bestIoU = g.box.IoU(p.box)
						break
					}
				}
			}
			if bestJ < 0 {
				for j, p := range preds {
					if usedPred[j] {
						continue
					}
					if iou := g.box.IoU(p.box); iou >= iouThresh && iou > bestIoU {
						bestIoU = iou
						bestJ = j
					}
				}
			}
			if bestJ < 0 {
				res.Misses++
				continue
			}
			usedPred[bestJ] = true
			res.Matches++
			if prev, ok := lastMatch[g.id]; ok && prev != preds[bestJ].id {
				res.IDSwitches++
			}
			lastMatch[g.id] = preds[bestJ].id
		}
		for j := range preds {
			if !usedPred[j] {
				res.FalsePos++
			}
		}
	}
	return res
}
