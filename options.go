package otif

import "otif/internal/obs"

// ProgressFunc receives structured progress events from tuning and
// extraction: one event per finished clip of an extraction, one per tuner
// iteration, one per evaluated candidate, and cache hit-rate snapshots.
// Events are observational only — they never change results — and may be
// delivered concurrently from parallel clip workers, so the callback must
// be safe for concurrent use.
type ProgressFunc = obs.Progress

// ProgressEvent is one structured progress event; see the obs.Event* kind
// constants re-exported below.
type ProgressEvent = obs.Event

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

// openConfig collects the functional options accepted by OpenWith.
type openConfig struct {
	opts     Options
	progress obs.Progress
}

// Option configures OpenWith. The With* constructors below build Options.
type Option interface {
	applyOpen(*openConfig)
}

// openOption adapts a plain function to Option.
type openOption func(*openConfig)

func (f openOption) applyOpen(c *openConfig) { f(c) }

// WithOptions applies a full Options struct; later options override its
// fields. Open(name, opts) is shorthand for OpenWith(name, WithOptions(opts)).
func WithOptions(opts Options) Option {
	return openOption(func(c *openConfig) { c.opts = opts })
}

// WithSeed sets the seed driving dataset sampling and model initialization.
func WithSeed(seed int64) Option {
	return openOption(func(c *openConfig) { c.opts.Seed = seed })
}

// WithClips sets the number of clips sampled per set (train/val/test).
func WithClips(n int) Option {
	return openOption(func(c *openConfig) { c.opts.ClipsPerSet = n })
}

// WithClipSeconds sets the duration of each sampled clip in seconds.
func WithClipSeconds(s float64) Option {
	return openOption(func(c *openConfig) { c.opts.ClipSeconds = s })
}

// WithProgress attaches a progress callback to the pipeline. fn receives
// tuning and extraction events; it must be safe for concurrent use.
func WithProgress(fn ProgressFunc) Option {
	return openOption(func(c *openConfig) { c.progress = fn })
}
