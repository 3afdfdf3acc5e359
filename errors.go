package otif

import (
	"errors"

	"otif/internal/core"
)

// Sentinel errors returned by the pipeline API. Test with errors.Is.
var (
	// ErrNotTrained is returned by Tune, Extract-adjacent operations and
	// SaveModels when Train (or LoadModels) has not run yet.
	ErrNotTrained = errors.New("otif: pipeline not trained")

	// ErrEmptyCurve is returned by PickFastestWithin for an empty curve
	// (Tune not run, or it produced no points).
	ErrEmptyCurve = errors.New("otif: empty tuning curve")

	// ErrNoSegments is returned by LoadTrackSets for a directory that
	// holds no segment file.
	ErrNoSegments = errors.New("otif: no segment file")
)

// PartialError reports an operation canceled partway through. It wraps the
// context error (so errors.Is(err, context.Canceled) works) and records how
// much of the work completed before the cancellation was observed.
type PartialError = core.PartialError
