package baselines

import (
	"context"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/query"
	"otif/internal/track"
	"otif/internal/video"
)

// CaTDet is our implementation of the Cascaded Tracked Detector (Mao et
// al., SysML 2019): a cheap proposal detector plus the tracker's predicted
// object positions select regions of interest, and the expensive refinement
// detector runs only inside those regions. Like the original, it processes
// every frame (no framerate or resolution optimization), which limits how
// fast it can get (§4.1).
type CaTDet struct {
	// ProposalScales are the cheap-detector resolution candidates.
	ProposalScales []float64
}

// NewCaTDet returns the CaTDet baseline.
func NewCaTDet() *CaTDet { return &CaTDet{ProposalScales: []float64{0.5, 0.41, 0.34}} }

// Name implements TrackMethod.
func (c *CaTDet) Name() string { return "CaTDet" }

// Tune implements TrackMethod: candidates sweep the proposal detector's
// resolution.
func (c *CaTDet) Tune(sys *core.System, metric core.Metric) []Candidate {
	var out []Candidate
	for _, scale := range c.ProposalScales {
		out = append(out, newCandidate(sys, metric, func(_ context.Context, clip *video.Clip, acct *costmodel.Accountant) []*query.Track {
			return c.runClip(sys, scale, clip, acct)
		}))
	}
	return out
}

// runClip runs the refinement detector on every frame of clip inside the
// regions of interest and tracks its detections with SORT.
func (c *CaTDet) runClip(sys *core.System, proposalScale float64, clip *video.Clip, acct *costmodel.Accountant) []*query.Track {
	nomW, nomH := sys.DS.Cfg.NomW, sys.DS.Cfg.NomH
	proposal := &detect.Detector{
		Cfg: detect.Config{
			Arch: detect.ArchYOLO, ConfThresh: 0.1,
			Width: int(float64(nomW) * proposalScale), Height: int(float64(nomH) * proposalScale),
		},
		Background: sys.Background,
		Classify:   sys.Classifier,
		Acct:       acct,
	}
	refiner := sys.Detector(sys.Best, acct)
	tracker := track.NewSORT()
	var lastDets []detect.Detection
	reader := video.NewReader(clip, 1, nomW, nomH, acct)
	for {
		frame, idx := reader.Next()
		if frame == nil {
			break
		}
		// Regions of interest: cheap proposals plus last frame's
		// tracked objects, dilated.
		props := proposal.Detect(frame, idx)
		var rois []geom.Rect
		for _, p := range props {
			rois = append(rois, dilate(p.Box, 1.6).Clip(frame.Bounds()))
		}
		for _, d := range lastDets {
			rois = append(rois, dilate(d.Box, 1.8).Clip(frame.Bounds()))
		}
		rois = mergeROIs(rois)
		dets := refiner.DetectWindows(frame, idx, rois)
		lastDets = dets
		tracker.Update(&track.FrameContext{FrameIdx: idx, GapFrames: 1}, dets)
	}
	return core.StoredTracks(track.PruneShort(tracker.Finish(), 2))
}

func dilate(r geom.Rect, f float64) geom.Rect {
	cx, cy := r.Center().X, r.Center().Y
	w, h := r.W*f, r.H*f
	return geom.Rect{X: cx - w/2, Y: cy - h/2, W: w, H: h}
}

// mergeROIs unions overlapping regions so the refinement detector is not
// charged twice for the same pixels.
func mergeROIs(rois []geom.Rect) []geom.Rect {
	merged := true
	for merged {
		merged = false
		for i := 0; i < len(rois) && !merged; i++ {
			for j := i + 1; j < len(rois); j++ {
				if rois[i].Intersects(rois[j]) {
					rois[i] = rois[i].Union(rois[j])
					rois = append(rois[:j], rois[j+1:]...)
					merged = true
					break
				}
			}
		}
	}
	return rois
}
