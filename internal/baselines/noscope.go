package baselines

import (
	"context"

	"otif/internal/core"
	"otif/internal/costmodel"
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
		out = append(out, newCandidate(sys, metric, func(_ context.Context, clip *video.Clip, acct *costmodel.Accountant) []*query.Track {
			return n.runClip(sys, th, clip, acct)
		}))
	}
	return out
}

// runClip runs the detector on every frame of clip whose frame score
// reaches threshold and tracks the detections with SORT.
func (n *NoScope) runClip(sys *core.System, threshold float64, clip *video.Clip, acct *costmodel.Accountant) []*query.Track {
	proxyModel := sys.Proxies[len(sys.Proxies)-1] // lowest resolution
	// The detector uses theta_best's architecture and resolution, so the
	// threshold-zero candidate is exactly the naive fallback configuration.
	detector := sys.Detector(sys.Best, acct)
	tracker := track.NewSORT()
	reader := video.NewReader(clip, 1, detector.Cfg.Width, detector.Cfg.Height, acct)
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
	return core.StoredTracks(track.PruneShort(tracker.Finish(), 2))
}
