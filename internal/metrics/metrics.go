// Package metrics implements the accuracy metrics used in the paper's
// evaluation: count accuracy for object track queries (1 - |x̂ - x*| / x*,
// averaged over clips and path types), mean average precision at 50% IoU
// for detection quality (Figure 7 left), and precision-recall curves for
// the proxy model's per-cell scores (Figure 7 right).
package metrics

import (
	"math"
	"sort"

	"otif/internal/geom"
)

// CountAccuracy returns the paper's count accuracy 1 - |pred - truth| /
// truth, clamped to [0, 1]. When the true count is zero the accuracy is 1
// if the prediction is also zero and 0 otherwise.
func CountAccuracy(pred, truth float64) float64 {
	if truth == 0 {
		if pred == 0 {
			return 1
		}
		return 0
	}
	a := 1 - math.Abs(pred-truth)/truth
	if a < 0 {
		return 0
	}
	return a
}

// MeanCountAccuracy averages CountAccuracy over paired counts; it is used
// to aggregate per-clip (and, for path breakdown queries, per-path-type)
// accuracies.
func MeanCountAccuracy(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0
	}
	var sum float64
	for i := range pred {
		sum += CountAccuracy(pred[i], truth[i])
	}
	return sum / float64(len(pred))
}

// ScoredBox is a detection with a confidence score, for mAP computation.
type ScoredBox struct {
	Box   geom.Rect
	Score float64
}

// APAt50 computes average precision at IoU 0.5 for one frame set:
// detections across all frames are sorted by score and matched greedily to
// unmatched ground truth boxes of the same frame.
//
// dets and truths are parallel per-frame slices.
func APAt50(dets [][]ScoredBox, truths [][]geom.Rect) float64 {
	type flat struct {
		frame int
		det   ScoredBox
	}
	var all []flat
	totalTruth := 0
	for f := range truths {
		totalTruth += len(truths[f])
	}
	for f := range dets {
		for _, d := range dets[f] {
			all = append(all, flat{f, d})
		}
	}
	if totalTruth == 0 {
		if len(all) == 0 {
			return 1
		}
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].det.Score > all[j].det.Score })

	matched := make([][]bool, len(truths))
	for f := range truths {
		matched[f] = make([]bool, len(truths[f]))
	}
	tp := make([]int, len(all))
	fp := make([]int, len(all))
	for i, d := range all {
		bestIoU := 0.0
		bestJ := -1
		if d.frame < len(truths) {
			for j, t := range truths[d.frame] {
				if matched[d.frame][j] {
					continue
				}
				if iou := d.det.Box.IoU(t); iou > bestIoU {
					bestIoU = iou
					bestJ = j
				}
			}
		}
		if bestJ >= 0 && bestIoU >= 0.5 {
			matched[d.frame][bestJ] = true
			tp[i] = 1
		} else {
			fp[i] = 1
		}
	}

	// Precision-recall curve and 101-point interpolated AP.
	var cumTP, cumFP int
	precisions := make([]float64, len(all))
	recalls := make([]float64, len(all))
	for i := range all {
		cumTP += tp[i]
		cumFP += fp[i]
		precisions[i] = float64(cumTP) / float64(cumTP+cumFP)
		recalls[i] = float64(cumTP) / float64(totalTruth)
	}
	var ap float64
	for _, r := range interpPoints(101) {
		best := 0.0
		for i := range all {
			if recalls[i] >= r && precisions[i] > best {
				best = precisions[i]
			}
		}
		ap += best
	}
	return ap / 101
}

func interpPoints(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) / float64(n-1)
	}
	return out
}

// PRPoint is one precision/recall point at a score threshold.
type PRPoint struct {
	Threshold float64
	Precision float64
	Recall    float64
}

// PRCurve computes the precision-recall curve of binary scores against
// boolean labels by sweeping thresholds over the distinct scores (Figure 7
// right evaluates proxy cell scores this way).
func PRCurve(scores []float64, labels []bool, thresholds []float64) []PRPoint {
	out := make([]PRPoint, 0, len(thresholds))
	for _, th := range thresholds {
		var tp, fp, fn int
		for i, s := range scores {
			pos := s >= th
			switch {
			case pos && labels[i]:
				tp++
			case pos && !labels[i]:
				fp++
			case !pos && labels[i]:
				fn++
			}
		}
		p := PRPoint{Threshold: th, Precision: 1, Recall: 0}
		if tp+fp > 0 {
			p.Precision = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			p.Recall = float64(tp) / float64(tp+fn)
		}
		out = append(out, p)
	}
	return out
}
