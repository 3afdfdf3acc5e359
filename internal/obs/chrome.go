package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Chrome trace-event export: the flight recorder's spans rendered as the
// JSON object format Perfetto and chrome://tracing load directly. Every
// span becomes one complete ("X") event; spans are packed onto virtual
// threads (lanes) so that spans sharing a lane always nest properly —
// camera-attributed spans get one lane group per camera, everything else
// is interval-colored into "worker" lanes that approximate the pool's
// concurrency.

// chromeEvent is one trace-event JSON object. Timestamps and durations
// are in microseconds per the format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeLane is one virtual thread being packed: a stack of open span
// intervals (end timestamps), innermost last.
type chromeLane struct {
	key  string // camera name, or "" for the shared worker group
	open []int64
}

// fits reports whether a span starting at start and ending at end can be
// placed on the lane without breaking nesting: after closing every
// interval that ended before the span starts, the innermost open interval
// (if any) must fully contain it.
func (l *chromeLane) fits(start, end int64) bool {
	i := len(l.open)
	for i > 0 && l.open[i-1] <= start {
		i--
	}
	return i == 0 || l.open[i-1] >= end
}

// place pushes the span onto the lane's stack.
func (l *chromeLane) place(start, end int64) {
	i := len(l.open)
	for i > 0 && l.open[i-1] <= start {
		i--
	}
	l.open = append(l.open[:i], end)
}

// WriteChrome writes the retained spans in Chrome trace-event JSON (the
// {"traceEvents": [...], "otherData": {...}} object form), the recorder's
// one trace format. The output loads in Perfetto and chrome://tracing; span
// attributes ride along in each event's args, and the ring's Stats (capacity,
// overwritten spans) under otherData. A nil recorder writes an empty (but
// valid) trace.
func (r *Recorder) WriteChrome(w io.Writer) error {
	spans := r.Snapshot()
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	// laneOf maps span id -> lane index. A span prefers its parent's lane
	// (stack nesting); otherwise the first lane of its camera group that
	// fits; otherwise a fresh lane. Spans arrive in start order, which the
	// packing relies on.
	lanes := []*chromeLane{}
	laneOf := make(map[uint64]int, len(spans))
	for _, s := range spans {
		start, end := s.StartNS, s.StartNS+s.DurNS
		key := s.Camera
		if key == "" {
			// Inherit the camera group from the nearest retained ancestor
			// so children of an ingest clip stay on its camera lane.
			for p := s.Parent; p != 0; {
				pi, ok := byID[p]
				if !ok {
					break
				}
				if spans[pi].Camera != "" {
					key = spans[pi].Camera
					break
				}
				p = spans[pi].Parent
			}
		}
		lane := -1
		if pi, ok := laneOf[s.Parent]; ok && lanes[pi].fits(start, end) {
			lane = pi
		} else {
			for i, l := range lanes {
				if l.key == key && l.fits(start, end) {
					lane = i
					break
				}
			}
		}
		if lane < 0 {
			lanes = append(lanes, &chromeLane{key: key})
			lane = len(lanes) - 1
		}
		lanes[lane].place(start, end)
		laneOf[s.ID] = lane
	}

	// Stable tids: camera lanes first (sorted by camera name), then the
	// shared worker lanes, in creation order within each group.
	order := make([]int, len(lanes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := lanes[order[a]].key, lanes[order[b]].key
		if (ka == "") != (kb == "") {
			return ka != "" // camera lanes first
		}
		if ka != kb {
			return ka < kb
		}
		return order[a] < order[b]
	})
	tidOf := make([]int, len(lanes))
	events := make([]chromeEvent, 0, len(spans)+len(lanes)+1)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "otif"},
	})
	for rank, li := range order {
		tid := rank + 1
		tidOf[li] = tid
		name := lanes[li].key
		if name == "" {
			name = fmt.Sprintf("worker %d", tid)
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range spans {
		args := map[string]any{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Camera != "" {
			args["camera"] = s.Camera
		}
		if s.Clip >= 0 {
			args["clip"] = s.Clip
		}
		if s.Stage != "" {
			args["stage"] = s.Stage
		}
		if s.Err {
			args["err"] = true
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "otif", Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.DurNS) / 1e3,
			PID: 1, TID: tidOf[laneOf[s.ID]], Args: args,
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		OtherData   RecorderStats `json:"otherData"`
	}{TraceEvents: events, OtherData: r.Stats()})
}

// WriteTraceFile writes the installed recorder's spans to path with
// WriteChrome (an empty trace when tracing is off).
func WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = CurrentRecorder().WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
