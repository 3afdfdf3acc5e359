package otif

import (
	"context"

	"otif/internal/obs"
)

// ProgressFunc receives structured progress events (obs.Event; see the kind
// constants re-exported below) from tuning and extraction: one event per
// finished clip of an extraction, one per tuner iteration, one per
// evaluated candidate, and cache hit-rate snapshots.
// Events are observational only — they never change results — and may be
// delivered concurrently from parallel clip workers, so the callback must
// be safe for concurrent use.
type ProgressFunc = obs.Progress

// WithProgress returns a context under which Tune, Extract and Ingest
// report their events to fn. Progress belongs to the call, not the
// pipeline: two calls running at once on one pipeline, each under its own
// context, each see only their own events.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return obs.WithProgress(ctx, fn)
}

// EventKind names a progress event type.
type EventKind = obs.EventKind

// Progress event kinds.
const (
	// EventTuneIter marks the start of one greedy tuner iteration.
	EventTuneIter = obs.EventTuneIter
	// EventCandidate reports one evaluated candidate configuration with
	// its validation runtime and accuracy.
	EventCandidate = obs.EventCandidate
	// EventClip reports one clip of an extraction finishing with its
	// simulated runtime.
	EventClip = obs.EventClip
	// EventCacheSnapshot reports the frame-cache hit rate at a milestone
	// (for example after the tuner's evaluation cache is built).
	EventCacheSnapshot = obs.EventCacheSnapshot
	// EventIngestClip reports one streamed clip publishing to the live
	// store during Pipeline.Ingest.
	EventIngestClip = obs.EventIngestClip
)
