// Package baselines implements the seven systems OTIF is evaluated against
// in §4 of the paper: the video query optimizers Miris, BlazeIt and TASTI,
// and the detection/tracking baselines NoScope, Chameleon, CaTDet and
// CenterTrack. Every baseline is built from scratch on the same substrate
// (detectors, trackers, proxy models, cost model) so comparisons measure
// algorithmic differences, not implementation quality — mirroring §4.6,
// where the authors re-implement Miris/BlazeIt/NoScope for the same reason.
//
// A baseline keeps only its policy. A track-query baseline is a per-clip
// body (core.ClipFunc) per candidate configuration, run over clip sets by
// core's clip-set runner, the one OTIF's own extraction uses, and scored
// by Candidate.Evaluate. The frame-level methods rank frames their own way
// and share one separated, verified selection (selectSeparated).
package baselines

import (
	"context"

	"otif/internal/core"
	"otif/internal/dataset"
	"otif/internal/tuner"
)

// Candidate is one tuned parameter configuration of a baseline method,
// with its validation performance and an executor for fresh clip sets.
type Candidate struct {
	// ValAccuracy and ValRuntime are measured on the validation set.
	ValAccuracy float64
	ValRuntime  float64
	// QueryFraction is the fraction of execution cost that must be repeated
	// for each additional query (1 for fully query-driven methods like
	// Miris, 0 for query-agnostic pre-processors).
	QueryFraction float64

	sys  *core.System
	body core.ClipFunc
}

// newCandidate is the candidate that runs body on sys, measured on the
// validation set.
func newCandidate(sys *core.System, metric core.Metric, body core.ClipFunc) Candidate {
	c := Candidate{sys: sys, body: body}
	val := c.Evaluate(sys.DS.Val, metric)
	c.ValAccuracy, c.ValRuntime = val.Accuracy, val.Runtime
	return c
}

// Run executes the candidate over a clip set (typically the test set) on
// core's clip-set runner.
func (c Candidate) Run(clips []*dataset.ClipTruth) *core.SetResult {
	// context.Background is never canceled, so the error is always nil.
	res, _ := c.sys.RunClips(context.Background(), clips, c.body)
	return res
}

// Evaluate runs the candidate over clips and scores its tracks with metric.
func (c Candidate) Evaluate(clips []*dataset.ClipTruth, metric core.Metric) tuner.Point {
	res := c.Run(clips)
	return tuner.Point{Runtime: res.Runtime, Accuracy: metric.Accuracy(res.PerClip, clips)}
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
