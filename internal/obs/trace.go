package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing records named, parent-linked durations of pipeline stages
// (RunSet, per-clip execution, tuner iterations, ingest clips, HTTP
// requests) into a flight recorder: a fixed-capacity ring of attributed
// spans that overwrites oldest-first, so a long-running daemon always
// holds the most recent window of activity under bounded memory. The
// recorder is cheap enough to leave on permanently — recording a finished
// span writes into a pre-allocated slot under one mutex and allocates
// nothing — and with no recorder installed StartSpan reads no
// clock, allocates nothing, and returns a nil *Span whose End is a no-op.
// Durations come from the monotonic clock and are recorded only; they
// never feed back into pipeline computation.

// DefaultRecorderSpans is the span capacity NewRecorder selects for a
// non-positive request. At ~128 bytes per slot the default ring holds the
// recent history of a busy daemon in a few megabytes.
const DefaultRecorderSpans = 1 << 14

// SpanRecord is one finished span. Camera, Clip, Stage and Err are the
// attribute set every exporter understands: which camera and clip the
// span worked on, which pipeline stage it belongs to ("extract", "tune",
// "ingest", "serve"), and whether it ended in an error (a canceled run, a
// 5xx response).
type SpanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartNS is the span's start offset from the recorder's installation,
	// DurNS its duration; both in monotonic nanoseconds.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// Camera names the stream source for ingest spans ("" when not
	// camera-bound).
	Camera string `json:"camera,omitempty"`
	// Clip is the clip index the span processed; -1 when the span is not
	// clip-scoped.
	Clip  int    `json:"clip"`
	Stage string `json:"stage,omitempty"`
	Err   bool   `json:"err,omitempty"`
}

// Recorder is the flight recorder: a fixed-capacity, overwrite-oldest
// ring of finished spans that holds exactly the newest Capacity of them.
// All methods are safe for concurrent use, and every method tolerates a
// nil receiver (reporting an empty trace), so exporters can run
// unconditionally.
//
// The ring is one slice under one mutex: spans are per clip, per tuner
// iteration and per HTTP request, never per frame, so a few hundred per
// second at most contend for it.
type Recorder struct {
	start time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	buf   []SpanRecord
	next  int    // next write slot
	total uint64 // spans ever recorded
}

// NewRecorder creates a recorder retaining at most max spans (a
// non-positive max selects DefaultRecorderSpans). Memory is allocated up
// front; recording never allocates.
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultRecorderSpans
	}
	return &Recorder{start: time.Now(), buf: make([]SpanRecord, max)}
}

// Capacity reports how many spans the ring retains before overwriting.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// record writes one finished span into the next ring slot, overwriting the
// oldest span once full.
func (r *Recorder) record(rec SpanRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.total++
	r.mu.Unlock()
}

// RecorderStats is a point-in-time summary of the ring's occupancy.
type RecorderStats struct {
	// Capacity is the ring size; Retained how many spans it currently
	// holds; Recorded how many spans have ever been recorded; Overwritten
	// how many were evicted oldest-first (Recorded - Retained).
	Capacity    int   `json:"capacity"`
	Retained    int   `json:"retained"`
	Recorded    int64 `json:"recorded"`
	Overwritten int64 `json:"overwritten"`
	// Utilization is Retained / Capacity in [0, 1].
	Utilization float64 `json:"utilization"`
}

// Stats summarizes the ring's occupancy.
func (r *Recorder) Stats() RecorderStats {
	st := RecorderStats{Capacity: r.Capacity()}
	if r == nil {
		return st
	}
	r.mu.Lock()
	st.Recorded = int64(r.total)
	r.mu.Unlock()
	st.Retained = int(min(st.Recorded, int64(st.Capacity)))
	st.Overwritten = st.Recorded - int64(st.Retained)
	if st.Capacity > 0 {
		st.Utilization = float64(st.Retained) / float64(st.Capacity)
	}
	return st
}

// Snapshot returns a copy of the retained spans ordered by start time
// (ties by id, so a parent precedes its children).
func (r *Recorder) Snapshot() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []SpanRecord
	if r.total >= uint64(len(r.buf)) {
		out = append(append(make([]SpanRecord, 0, len(r.buf)), r.buf[r.next:]...), r.buf[:r.next]...)
	} else {
		out = append(out, r.buf[:r.next]...)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Subtree returns the retained span with id root plus every retained
// descendant, in start order. Spans whose ancestors were already
// overwritten are simply absent — the subtree is best-effort over the
// ring's current window.
func (r *Recorder) Subtree(root uint64) []SpanRecord {
	if r == nil || root == 0 {
		return nil
	}
	all := r.Snapshot()
	in := map[uint64]bool{root: true}
	out := make([]SpanRecord, 0, 8)
	// Snapshot order sorts parents before children (ids grow with start
	// time along any parent chain), so one forward pass closes the set.
	for _, s := range all {
		if s.ID == root || in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// globalRecorder is the installed flight recorder; nil means tracing is
// disabled.
var globalRecorder atomic.Pointer[Recorder]

// SetRecorder installs (or with nil, removes) the process-wide flight
// recorder.
func SetRecorder(r *Recorder) { globalRecorder.Store(r) }

// EnableTracing installs a fresh process-wide flight recorder retaining
// at most max spans and returns it.
func EnableTracing(max int) *Recorder {
	r := NewRecorder(max)
	SetRecorder(r)
	return r
}

// CurrentRecorder returns the installed flight recorder, or nil when
// tracing is disabled.
func CurrentRecorder() *Recorder { return globalRecorder.Load() }

func init() {
	// Ring occupancy is scrapeable, not only read from a trace's otherData.
	Default.GaugeGroup(func() map[string]float64 {
		r := CurrentRecorder()
		if r == nil {
			return nil
		}
		st := r.Stats()
		return map[string]float64{
			"trace.capacity":          float64(st.Capacity),
			"trace.spans_retained":    float64(st.Retained),
			"trace.spans_recorded":    float64(st.Recorded),
			"trace.spans_overwritten": float64(st.Overwritten),
			"trace.utilization":       st.Utilization,
		}
	})
}

// spanCtxKey carries the current span id through a context for parent
// linking.
type spanCtxKey struct{}

// Span is one in-flight traced operation. A nil Span (returned when
// tracing is disabled) is valid: every setter and End on it is a no-op.
type Span struct {
	rec    *Recorder
	id     uint64
	parent uint64
	name   string
	begin  time.Time

	camera string
	clip   int
	stage  string
	err    bool
}

// StartSpan begins a span named name under the span carried by ctx (if
// any) and returns a derived context carrying the new span for child
// links. With tracing disabled it returns ctx unchanged and a nil span,
// reading no clock and allocating nothing.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	r := globalRecorder.Load()
	if r == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanCtxKey{}).(uint64)
	s := &Span{rec: r, id: r.ids.Add(1), parent: parent, name: name, begin: time.Now(), clip: -1}
	return context.WithValue(ctx, spanCtxKey{}, s.id), s
}

// ID returns the span's id (0 for a nil span), usable with
// Recorder.Subtree after the span ends.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetCamera attributes the span to a named stream source.
func (s *Span) SetCamera(camera string) *Span {
	if s != nil {
		s.camera = camera
	}
	return s
}

// SetClip attributes the span to a clip index.
func (s *Span) SetClip(clip int) *Span {
	if s != nil {
		s.clip = clip
	}
	return s
}

// SetStage attributes the span to a pipeline stage ("extract", "tune",
// "ingest", "serve").
func (s *Span) SetStage(stage string) *Span {
	if s != nil {
		s.stage = stage
	}
	return s
}

// SetErr flags the span as having ended in an error (a canceled run, a
// 5xx response).
func (s *Span) SetErr(err bool) *Span {
	if s != nil {
		s.err = err
	}
	return s
}

// End finishes the span, recording its monotonic duration and attributes
// into the flight recorder. End never allocates.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.record(SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartNS: s.begin.Sub(s.rec.start).Nanoseconds(),
		DurNS:   time.Since(s.begin).Nanoseconds(),
		Camera:  s.camera,
		Clip:    s.clip,
		Stage:   s.stage,
		Err:     s.err,
	})
}
