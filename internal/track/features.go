package track

import (
	"otif/internal/detect"
	"otif/internal/nn"
)

// FeatDim is the dimensionality of a detection-level feature vector: the
// normalized 4D bounding box, two appearance statistics from the detection
// patch, and the elapsed-frames input t_elapsed that the paper adds so the
// recurrent model can reason about motion across variable sampling gaps
// (§3.4).
const FeatDim = 7

// DetFeatures computes the detection-level feature vector for d.
// nomW/nomH normalize coordinates; tElapsedFrames is the number of native
// frames since the preceding detection of the same track (or since the
// previously processed frame, for new-frame detections); fps normalizes it
// to seconds. Appearance statistics come from the detection itself.
func DetFeatures(d detect.Detection, nomW, nomH, fps int, tElapsedFrames int) nn.Vec {
	return nn.Vec(AppendDetFeatures(make([]float64, 0, FeatDim), d, nomW, nomH, fps, tElapsedFrames))
}

// AppendDetFeatures appends the FeatDim detection-level features of d to
// dst and returns the extended slice; with sufficient capacity it
// allocates nothing. Values are identical to DetFeatures'.
func AppendDetFeatures(dst []float64, d detect.Detection, nomW, nomH, fps int, tElapsedFrames int) []float64 {
	w := float64(nomW)
	h := float64(nomH)
	return append(dst,
		d.Box.Center().X/w,
		d.Box.Center().Y/h,
		d.Box.W/w,
		d.Box.H/h,
		d.AppMean/255,
		d.AppStd/64,
		float64(tElapsedFrames)/float64(fps),
	)
}

// pairFeatDim is the feature dimensionality of the pairwise matcher.
const pairFeatDim = 7

// PairFeatures computes the features the pairwise (Miris-style) matcher
// scores: the displacement, size change, IoU and appearance difference
// between a track's last detection and a candidate detection, plus the
// elapsed time.
func PairFeatures(prev, cur detect.Detection, nomW, nomH, fps, tElapsedFrames int) nn.Vec {
	return nn.Vec(AppendPairFeatures(make([]float64, 0, pairFeatDim), prev, cur, nomW, nomH, fps, tElapsedFrames))
}

// AppendPairFeatures appends the pairFeatDim pairwise-matcher features to
// dst and returns the extended slice; with sufficient capacity it
// allocates nothing. Values are identical to PairFeatures'.
func AppendPairFeatures(dst []float64, prev, cur detect.Detection, nomW, nomH, fps, tElapsedFrames int) []float64 {
	w := float64(nomW)
	h := float64(nomH)
	dc := cur.Box.Center().Sub(prev.Box.Center())
	return append(dst,
		dc.X/w,
		dc.Y/h,
		(cur.Box.W-prev.Box.W)/w,
		(cur.Box.H-prev.Box.H)/h,
		prev.Box.IoU(cur.Box),
		(cur.AppMean-prev.AppMean)/255,
		float64(tElapsedFrames)/float64(fps),
	)
}
