package track

import (
	"otif/internal/detect"
	"otif/internal/nn"
)

// MotionDim is the dimensionality of the motion-delta features appended to
// the matching network's input. The recurrent tracker's track-level
// representation includes a constant-velocity prediction of where the
// object should be at the candidate detection's timestamp; the matching
// network scores how well the candidate agrees with that prediction. This
// is the multi-frame motion cue the pairwise (Miris-style) matcher cannot
// use, and the reason the recurrent tracker wins at large sampling gaps
// (§3.4).
const MotionDim = 5

// MotionFeatures computes the motion-delta features between a track prefix
// (its recent detections) and a candidate detection: the residual between
// the velocity-predicted center and the candidate center, the size change,
// and the IoU of the velocity-predicted box with the candidate box.
func MotionFeatures(prefix []detect.Detection, cand detect.Detection, nomW, nomH int) nn.Vec {
	return nn.Vec(AppendMotionFeatures(make([]float64, 0, MotionDim), prefix, cand, nomW, nomH))
}

// AppendMotionFeatures appends the MotionDim motion-delta features to dst
// and returns the extended slice; with sufficient capacity it allocates
// nothing. Values are identical to MotionFeatures'.
func AppendMotionFeatures(dst []float64, prefix []detect.Detection, cand detect.Detection, nomW, nomH int) []float64 {
	w := float64(nomW)
	h := float64(nomH)
	last := prefix[len(prefix)-1]
	vx, vy := 0.0, 0.0 // nominal px per frame
	if len(prefix) >= 2 {
		prev := prefix[len(prefix)-2]
		dt := float64(last.FrameIdx - prev.FrameIdx)
		if dt > 0 {
			d := last.Box.Center().Sub(prev.Box.Center())
			vx, vy = d.X/dt, d.Y/dt
		}
	}
	dt := float64(cand.FrameIdx - last.FrameIdx)
	pred := last.Box.Translate(vx*dt, vy*dt)
	residual := cand.Box.Center().Sub(pred.Center())
	return append(dst,
		residual.X/w*4, // scaled so typical residuals use the range
		residual.Y/h*4,
		(cand.Box.W-last.Box.W)/w*4,
		(cand.Box.H-last.Box.H)/h*4,
		pred.IoU(cand.Box),
	)
}
