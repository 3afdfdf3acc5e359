package baselines

import (
	"fmt"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/query"
	"otif/internal/track"
	"otif/internal/video"
)

// NoScope is our implementation of the NoScope optimizer (Kang et al.,
// VLDB 2017): a frame-level classification proxy model decides, per frame,
// whether the frame contains any object at all; the expensive detector is
// skipped on frames the proxy confidently labels empty. On busy scenes
// where every frame has objects, the proxy can skip nothing and NoScope
// degenerates to two useful configurations — run the detector everywhere,
// or skip everything — exactly as the paper observes (§4.1).
type NoScope struct {
	// Thresholds are the proxy confidence thresholds swept to produce the
	// speed-accuracy tradeoff.
	Thresholds []float64
}

// NewNoScope returns the NoScope baseline with its threshold sweep.
func NewNoScope() *NoScope {
	return &NoScope{Thresholds: []float64{0.0, 0.2, 0.4, 0.6, 0.8, 0.98}}
}

// Name implements TrackMethod.
func (n *NoScope) Name() string { return "NoScope" }

// Tune implements TrackMethod. The frame classifier reuses the lowest-
// resolution segmentation proxy model: the frame score is the maximum cell
// score, i.e. the model's confidence that *some* cell contains an object.
func (n *NoScope) Tune(sys *core.System, metric core.Metric) []Candidate {
	var out []Candidate
	for _, th := range n.Thresholds {
		th := th
		run := func(clips []*dataset.ClipTruth) *core.SetResult {
			return n.runSet(sys, th, clips)
		}
		res := run(sys.DS.Val)
		out = append(out, Candidate{
			Label:       fmt.Sprintf("noscope@%.2f", th),
			Run:         run,
			ValAccuracy: metric.Accuracy(res.PerClip, sys.DS.Val),
			ValRuntime:  res.Runtime,
		})
	}
	return out
}

func (n *NoScope) runSet(sys *core.System, threshold float64, clips []*dataset.ClipTruth) *core.SetResult {
	acct := costmodel.NewAccountant()
	out := &core.SetResult{PerClip: make([][]*query.Track, len(clips))}
	proxyModel := sys.Proxies[len(sys.Proxies)-1] // lowest resolution
	// The detector uses theta_best's architecture and resolution, so the
	// threshold-zero candidate is exactly the naive fallback configuration.
	detW, detH := sys.Best.DetRes(sys.DS.Cfg.NomW, sys.DS.Cfg.NomH)
	for i, ct := range clips {
		detector := sys.Detector(sys.Best, acct)
		tracker := track.NewSORT()
		reader := video.NewReader(ct.Clip, 1, detW, detH, acct)
		for {
			frame, idx := reader.Next()
			if frame == nil {
				break
			}
			scores := proxyModel.Score(frame, sys.Background, acct)
			frameScore := 0.0
			for _, s := range scores {
				if s > frameScore {
					frameScore = s
				}
			}
			var dets []detect.Detection
			if frameScore >= threshold {
				dets = detector.Detect(frame, idx)
			}
			tracker.Update(&track.FrameContext{FrameIdx: idx, GapFrames: 1}, dets)
		}
		out.PerClip[i] = core.StoredTracks(track.PruneShort(tracker.Finish(), 2))
	}
	out.Runtime = acct.Total()
	out.Breakdown = acct.Breakdown()
	return out
}
