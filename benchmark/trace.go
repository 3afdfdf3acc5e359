package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sync/atomic"
	"time"
)

// The traced run records one span around each call into a layer. Spans go
// into a buffer allocated before the run starts and are written out as
// Chrome trace-event JSON (the shape /v1/debug/trace?format=chrome serves,
// loadable in Perfetto) when the run ends, so recording costs two clock
// reads and one atomic add per span.

type span struct {
	name   string
	start  int64 // ns since tracer start
	dur    int64
	lane   int32
	parent int32 // span id, -1 for a root
	arg    int32 // clip, pass or request number; -1 when unused
}

type tracer struct {
	t0      time.Time
	buf     []span
	next    atomic.Int64
	dropped atomic.Int64
	lanes   map[int32]string
}

// Lanes (Chrome "threads") the benchmark's goroutines record on.
const (
	laneMain     = 1
	lanePrefetch = 2 // the reader's decode-ahead goroutine
	laneIngest   = 3
	laneClient   = 4 // +client index
)

func newTracer(capacity int) *tracer {
	return &tracer{
		t0:  time.Now(),
		buf: make([]span, capacity),
		lanes: map[int32]string{
			laneMain: "benchmark", lanePrefetch: "decode-ahead", laneIngest: "ingest",
			laneClient: "client 0", laneClient + 1: "client 1",
		},
	}
}

// begin opens a span and returns its id; a nil tracer, or a full buffer,
// returns -1, which end ignores.
func (t *tracer) begin(name string, lane int32, parent int32, arg int) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return -1
	}
	t.buf[i] = span{name: name, start: int64(time.Since(t.t0)), lane: lane, parent: parent, arg: int32(arg)}
	return int32(i)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	s := &t.buf[id]
	s.dur = int64(time.Since(t.t0)) - s.start
}

// record adds a span whose start and duration were measured elsewhere.
func (t *tracer) record(name string, lane int32, arg int, start time.Time, d time.Duration) {
	if id := t.begin(name, lane, -1, arg); id >= 0 {
		t.buf[id].start = int64(start.Sub(t.t0))
		t.buf[id].dur = int64(d)
	}
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	n := int(t.next.Load())
	if n > len(t.buf) {
		n = len(t.buf)
	}
	return n
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome streams the recorded spans as {"traceEvents":[...]}; meta
// rides along as the process's metadata args.
func (t *tracer) writeChrome(w io.Writer, meta map[string]any) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString(`{"traceEvents":[` + "\n"); err != nil {
		return err
	}
	first := true
	emit := func(e chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(e) // Encode appends the newline
	}
	if err := emit(chromeEvent{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "otif-benchmark", "meta": meta}}); err != nil {
		return err
	}
	for lane, name := range t.lanes {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: lane, Args: map[string]any{"name": name}}); err != nil {
			return err
		}
	}
	for i := 0; i < t.len(); i++ {
		s := &t.buf[i]
		args := map[string]any{"id": i}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		if s.arg >= 0 {
			args["n"] = s.arg
		}
		if err := emit(chromeEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
			PID: 1, TID: s.lane, Args: args,
		}); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
