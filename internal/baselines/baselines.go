// Package baselines implements the seven systems OTIF is evaluated against
// in §4 of the paper: the video query optimizers Miris, BlazeIt and TASTI,
// and the detection/tracking baselines NoScope, Chameleon, CaTDet and
// CenterTrack. Every baseline is built from scratch on the same substrate
// (detectors, trackers, proxy models, cost model) so comparisons measure
// algorithmic differences, not implementation quality — mirroring §4.6,
// where the authors re-implement Miris/BlazeIt/NoScope for the same reason.
package baselines

import (
	"otif/internal/core"
	"otif/internal/dataset"
)

// Candidate is one tuned parameter configuration of a baseline method,
// with its validation performance and an executor for fresh clip sets.
type Candidate struct {
	Label string
	// Run executes the candidate over a clip set (typically the test set).
	Run func(clips []*dataset.ClipTruth) *core.SetResult
	// ValAccuracy and ValRuntime are measured on the validation set.
	ValAccuracy float64
	ValRuntime  float64
	// QueryFraction is the fraction of execution cost that must be repeated
	// for each additional query (1 for fully query-driven methods like
	// Miris, 0 for query-agnostic pre-processors).
	QueryFraction float64
}

// TrackMethod is a baseline for the object track queries of §4.1.
type TrackMethod interface {
	Name() string
	// Tune evaluates the method's candidate configurations on the
	// validation set (its "parameter selection phase").
	Tune(sys *core.System, metric core.Metric) []Candidate
}

// All returns the track-query baselines in the paper's order.
func All() []TrackMethod {
	return []TrackMethod{
		NewMiris(),
		NewChameleon(),
		NewNoScope(),
		NewCaTDet(),
		NewCenterTrack(),
	}
}
