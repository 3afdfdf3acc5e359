package obs

import "context"

// Progress receives structured pipeline events: tuner iterations
// starting, candidate configurations evaluated, clips finishing inside a
// RunSet, and frame-cache hit-rate snapshots. A nil Progress costs one
// nil check per event site. Clip events are emitted from parallel
// workers, so a Progress callback must be safe for concurrent use; event
// delivery order between clips is unspecified at worker counts above
// one. Events are observational only — nothing a callback does (short of
// canceling a context) changes pipeline results.
//
// A call's Progress rides its context (WithProgress), as its span does,
// so concurrent calls on one pipeline each report to their own.
type Progress func(Event)

// progressCtxKey carries a call's Progress through its context.
type progressCtxKey struct{}

// WithProgress returns a context whose calls report their events to p.
func WithProgress(ctx context.Context, p Progress) context.Context {
	return context.WithValue(ctx, progressCtxKey{}, p)
}

// ProgressFrom returns the Progress ctx carries, or nil (whose Emit does
// nothing) when it carries none.
func ProgressFrom(ctx context.Context) Progress {
	p, _ := ctx.Value(progressCtxKey{}).(Progress)
	return p
}

// EventKind names a progress event type.
type EventKind string

// The progress event kinds.
const (
	// EventTuneIter marks the start of one tuner iteration. Iteration and
	// Total are set.
	EventTuneIter EventKind = "tune.iter"
	// EventCandidate reports one evaluated candidate configuration.
	// Iteration, Index, Config, Runtime and Accuracy are set.
	EventCandidate EventKind = "tune.candidate"
	// EventClip reports one clip finishing inside a RunSet. Index, Total
	// and Runtime (the clip's simulated cost) are set.
	EventClip EventKind = "clip"
	// EventCacheSnapshot reports the frame cache hit rate (emitted after
	// the tuner's caching phase). CacheHitRate is set.
	EventCacheSnapshot EventKind = "cache"
	// EventIngestClip reports one streamed clip publishing to the live
	// store. Index is the clip's position in the published store, Config
	// carries the camera name, and Runtime the clip's simulated cost.
	EventIngestClip EventKind = "ingest.clip"
)

// Event is one structured progress notification. Only the fields
// documented on the event's kind are meaningful; the rest are zero, and
// its JSON form (a job's event stream in otifd) omits them.
type Event struct {
	Kind      EventKind `json:"kind"`
	Iteration int       `json:"iteration,omitempty"`
	Index     int       `json:"index,omitempty"`
	Total     int       `json:"total,omitempty"`
	// Config is the candidate configuration's string form.
	Config string `json:"config,omitempty"`
	// Runtime and Accuracy are simulated seconds and metric accuracy.
	Runtime  float64 `json:"runtime,omitempty"`
	Accuracy float64 `json:"accuracy,omitempty"`
	// CacheHitRate is the frame cache hit rate in [0, 1].
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
}

// Emit calls p with e when p is non-nil.
func (p Progress) Emit(e Event) {
	if p != nil {
		p(e)
	}
}
