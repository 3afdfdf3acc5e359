package core

import (
	"testing"

	"otif/internal/costmodel"
	"otif/internal/metrics"
)

// gtIDTracks converts one clip's oracle ground truth into identity tracks
// sampled at the given gap (matching what a tracker at that gap can see).
func gtIDTracks(sys *System, clipIdx, gap int) []*metrics.IDTrack {
	ct := sys.DS.Val[clipIdx]
	byID := map[int]*metrics.IDTrack{}
	for f := 0; f < ct.Clip.Len(); f += gap {
		for _, gt := range ct.Truth(f) {
			t, ok := byID[gt.ID]
			if !ok {
				t = &metrics.IDTrack{ID: gt.ID}
				byID[gt.ID] = t
			}
			t.Boxes = append(t.Boxes, metrics.TrackedBox{FrameIdx: f, Box: gt.Box})
		}
	}
	out := make([]*metrics.IDTrack, 0, len(byID))
	for _, t := range byID {
		// Objects seen only once cannot be tracked (length-1 pruning).
		if len(t.Boxes) >= 2 {
			out = append(out, t)
		}
	}
	return out
}

func predIDTracks(sys *System, cfg Config, clipIdx int) []*metrics.IDTrack {
	res := sys.RunClip(cfg, sys.DS.Val[clipIdx].Clip, costmodel.NewAccountant(), nil)
	out := make([]*metrics.IDTrack, 0, len(res))
	for _, t := range res {
		it := &metrics.IDTrack{ID: t.ID}
		for _, d := range t.Dets {
			it.Boxes = append(it.Boxes, metrics.TrackedBox{FrameIdx: d.FrameIdx, Box: d.Box})
		}
		out = append(out, it)
	}
	return out
}

// TestRecurrentBeatsSORTOnMOTAAtReducedRate checks the paper's core
// tracking claim with an identity-level metric: at a reduced sampling
// rate, the recurrent tracker preserves identities much better than the
// IoU-based heuristic tracker.
func TestRecurrentBeatsSORTOnMOTAAtReducedRate(t *testing.T) {
	sys := smallSystem(t)
	const gap = 4
	var sortRes, recRes metrics.MOTAResult
	for clip := range sys.DS.Val {
		gt := gtIDTracks(sys, clip, gap)
		cfg := sys.Best
		cfg.Gap = gap

		cfg.Tracker = TrackerSORT
		s := metrics.EvaluateMOTA(gt, predIDTracks(sys, cfg, clip), 0.3)
		sortRes.Misses += s.Misses
		sortRes.FalsePos += s.FalsePos
		sortRes.IDSwitches += s.IDSwitches
		sortRes.GTBoxes += s.GTBoxes

		cfg.Tracker = TrackerRecurrent
		r := metrics.EvaluateMOTA(gt, predIDTracks(sys, cfg, clip), 0.3)
		recRes.Misses += r.Misses
		recRes.FalsePos += r.FalsePos
		recRes.IDSwitches += r.IDSwitches
		recRes.GTBoxes += r.GTBoxes
	}
	if recRes.MOTA() <= sortRes.MOTA() {
		t.Errorf("recurrent MOTA %.3f should beat SORT MOTA %.3f at gap %d",
			recRes.MOTA(), sortRes.MOTA(), gap)
	}
	if recRes.MOTA() < 0.4 {
		t.Errorf("recurrent MOTA %.3f suspiciously low (misses=%d fp=%d sw=%d of %d)",
			recRes.MOTA(), recRes.Misses, recRes.FalsePos, recRes.IDSwitches, recRes.GTBoxes)
	}
}

// TestSORTMOTAHighAtNativeRate sanity-checks the heuristic tracker at the
// native framerate, where IoU matching should be reliable.
func TestSORTMOTAHighAtNativeRate(t *testing.T) {
	sys := smallSystem(t)
	cfg := sys.Best
	cfg.Gap = 1
	cfg.Tracker = TrackerSORT
	total := metrics.MOTAResult{}
	for clip := range sys.DS.Val {
		gt := gtIDTracks(sys, clip, 1)
		r := metrics.EvaluateMOTA(gt, predIDTracks(sys, cfg, clip), 0.3)
		total.Misses += r.Misses
		total.FalsePos += r.FalsePos
		total.IDSwitches += r.IDSwitches
		total.GTBoxes += r.GTBoxes
	}
	if total.MOTA() < 0.6 {
		t.Errorf("SORT native-rate MOTA %.3f, want >= 0.6 (misses=%d fp=%d sw=%d of %d)",
			total.MOTA(), total.Misses, total.FalsePos, total.IDSwitches, total.GTBoxes)
	}
}
