package track

import (
	"otif/internal/detect"
	"otif/internal/nn"
)

// This file holds the reusable working storage of the online trackers.
// Each tracker instance carries one matchScratch; every Update overwrites
// its buffers, which is safe because a tracker is driven by a single
// goroutine (parallel clip execution constructs one tracker per clip).
// Threading the scratch through feature construction, matching-network
// evaluation, and assignment keeps the per-processed-frame hot path free
// of heap allocations; only genuinely retained state (tracks, their
// hidden vectors, detection lists) is still allocated.

// grow resizes *s to length n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// growVec is grow for nn.Vec buffers.
func growVec(v *nn.Vec, n int) nn.Vec {
	if cap(*v) < n {
		*v = make(nn.Vec, n)
	}
	*v = (*v)[:n]
	return *v
}

// growMatrix shapes an n x m matrix over one flat backing buffer, reusing
// both the row-header slice and the backing storage. Contents are
// unspecified.
func growMatrix(rows *[][]float64, buf *[]float64, n, m int) [][]float64 {
	b := grow(buf, n*m)
	r := grow(rows, n)
	for i := range r {
		r[i] = b[i*m : (i+1)*m]
	}
	return r
}

// matchScratch is the per-tracker working storage of one Update round.
// Instances are recycled through the scratch pool (see pool.go): trackers
// acquire one lazily on first Update and release it in Finish, so clips
// executed back to back reuse fully grown buffers.
type matchScratch struct {
	nn     nn.Scratch    // matching-MLP and GRU buffers
	assign AssignScratch // Hungarian working storage

	featBuf   []float64   // flat per-detection feature matrix
	feats     []nn.Vec    // row views into featBuf
	motion    []float64   // one motion-feature vector
	in        nn.Vec      // matching-network input (concat buffer)
	startFeat []float64   // feature vector for newly started tracks
	costBuf   []float64   // flat cost-matrix backing
	cost      [][]float64 // row views into costBuf
	usedDet   []bool

	// arena backs the hidden vectors of started tracks; it is released
	// when the scratch returns to the pool (tracker Finish), after which
	// no track referencing those vectors exists.
	arena vecArena
}

// detFeatureRows fills the scratch's flat feature matrix with one
// DetFeatures row per detection (all with the same elapsed-frames input)
// and returns per-row views. The views are valid until the next call.
func (s *matchScratch) detFeatureRows(dets []detect.Detection, nomW, nomH, fps, tElapsedFrames int) []nn.Vec {
	buf := s.featBuf[:0]
	for _, d := range dets {
		buf = AppendDetFeatures(buf, d, nomW, nomH, fps, tElapsedFrames)
	}
	s.featBuf = buf
	feats := grow(&s.feats, len(dets))
	for j := range feats {
		feats[j] = nn.Vec(buf[j*FeatDim : (j+1)*FeatDim])
	}
	return feats
}
