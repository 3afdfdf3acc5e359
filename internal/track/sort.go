package track

import (
	"math"

	"otif/internal/detect"
)

// SORT is the heuristic Simple Online and Realtime Tracking baseline
// (Bewley et al. 2016) used by OTIF's best-accuracy configuration
// theta_best before the learned trackers are trained (§3.3). It predicts
// each active track's box forward with a constant-velocity model and
// matches predictions to new detections by IoU with a Hungarian
// assignment.
type SORT struct {
	online[velocity]
}

// velocity is a SORT track's smoothed velocity in nominal px per frame.
type velocity struct{ vx, vy float64 }

// NewSORT returns a SORT tracker with the standard defaults.
func NewSORT() *SORT { return &SORT{online[velocity]{MaxMisses: 2}} }

// Update implements Tracker.
func (s *SORT) Update(ctx *FrameContext, dets []detect.Detection) {
	cost := s.costs(len(dets))
	dt := float64(ctx.GapFrames)
	for i, l := range s.active {
		pred := l.track.Dets[len(l.track.Dets)-1].Box.Translate(l.state.vx*dt, l.state.vy*dt)
		for j, d := range dets {
			iou := pred.IoU(d.Box)
			if iou < minIoU {
				cost[i][j] = blocked
			} else {
				cost[i][j] = 1 - iou
			}
		}
	}
	s.associate(cost, 1-minIoU, dets, func(l *live[velocity], j int, _ float64) {
		l.state.absorb(l.track.Dets, dets[j])
	}, nil)
}

// absorb folds the step from the track's last detection to d into the
// exponentially smoothed velocity.
func (v *velocity) absorb(prev []detect.Detection, d detect.Detection) {
	last := prev[len(prev)-1]
	dt := math.Max(1, float64(d.FrameIdx-last.FrameIdx))
	nvx := (d.Box.X - last.Box.X) / dt
	nvy := (d.Box.Y - last.Box.Y) / dt
	if len(prev) == 1 {
		v.vx, v.vy = nvx, nvy
	} else {
		v.vx = 0.6*v.vx + 0.4*nvx
		v.vy = 0.6*v.vy + 0.4*nvy
	}
}
