package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestStartSpanDisabled(t *testing.T) {
	SetRecorder(nil)
	ctx := context.Background()
	got, sp := StartSpan(ctx, "noop")
	if got != ctx {
		t.Error("disabled StartSpan must return the context unchanged")
	}
	if sp != nil {
		t.Error("disabled StartSpan must return a nil span")
	}
	// Every operation on a nil span must be a no-op, not a panic.
	sp.SetCamera("cam0").SetClip(1).SetStage("extract").SetErr(true)
	if sp.ID() != 0 {
		t.Error("nil span must report id 0")
	}
	sp.End()
}

func TestSpanParentLinks(t *testing.T) {
	tr := EnableTracing(16)
	defer SetRecorder(nil)

	ctx, outer := StartSpan(context.Background(), "runset")
	cctx, inner := StartSpan(ctx, "clip")
	_ = cctx
	inner.End()
	outer.End()

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Snapshot order: by start time, outer first.
	if spans[0].Name != "runset" || spans[1].Name != "clip" {
		t.Fatalf("span names = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[1].Parent != spans[0].ID {
		t.Errorf("clip parent = %d, want runset id %d", spans[1].Parent, spans[0].ID)
	}
	if spans[0].Parent != 0 {
		t.Errorf("root span parent = %d, want 0", spans[0].Parent)
	}
	if spans[1].DurNS < 0 || spans[0].DurNS < spans[1].DurNS {
		t.Errorf("durations not monotonic: %d, %d", spans[0].DurNS, spans[1].DurNS)
	}
}

func TestSpanAttributes(t *testing.T) {
	tr := EnableTracing(16)
	defer SetRecorder(nil)

	_, sp := StartSpan(context.Background(), "ingest.clip")
	sp.SetCamera("cam3").SetClip(7).SetStage("ingest").SetErr(true)
	sp.End()
	_, plain := StartSpan(context.Background(), "plain")
	plain.End()

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	got := spans[0]
	if got.Camera != "cam3" || got.Clip != 7 || got.Stage != "ingest" || !got.Err {
		t.Errorf("attributed span = %+v", got)
	}
	if p := spans[1]; p.Camera != "" || p.Clip != -1 || p.Stage != "" || p.Err {
		t.Errorf("unattributed span carries attrs: %+v", p)
	}
}

// TestRecorderOverwritesOldest pins the flight-recorder contract that
// replaced the old capacity-capped tracer: when the ring is full the
// OLDEST spans are overwritten, so a long run always retains the most
// recent window (the old tracer kept startup spans and silently dropped
// everything new).
func TestRecorderOverwritesOldest(t *testing.T) {
	tr := EnableTracing(5) // not a multiple of anything: the ring holds what was asked for
	defer SetRecorder(nil)
	if tr.Capacity() != 5 {
		t.Fatalf("capacity = %d, want 5", tr.Capacity())
	}
	for i := 0; i < 20; i++ {
		_, sp := StartSpan(context.Background(), "s")
		sp.SetClip(i)
		sp.End()
	}
	spans := tr.Snapshot()
	if len(spans) != 5 {
		t.Fatalf("retained %d spans, want 5", len(spans))
	}
	for i, s := range spans {
		if want := 15 + i; s.Clip != want {
			t.Errorf("retained[%d].Clip = %d, want %d (newest spans must survive)", i, s.Clip, want)
		}
	}
	st := tr.Stats()
	if st.Recorded != 20 || st.Retained != 5 || st.Overwritten != 15 {
		t.Errorf("stats = %+v, want recorded 20, retained 5, overwritten 15", st)
	}
	if st.Utilization != 1 {
		t.Errorf("utilization = %v, want 1", st.Utilization)
	}
}

// TestRecorderConcurrentWritersExact has several goroutines record through
// one small ring while a reader snapshots it: the ring ends holding exactly
// the spans recorded last, which it could only promise "roughly" when it
// was eight rings chosen by span id.
func TestRecorderConcurrentWritersExact(t *testing.T) {
	const writers, each, capacity = 4, 500, 37
	tr := EnableTracing(capacity)
	defer SetRecorder(nil)
	var order []uint64 // span ids in the order their End returned
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_, sp := StartSpan(context.Background(), "s")
				mu.Lock() // End under the lock, so order is the ring's write order
				sp.End()
				order = append(order, sp.id)
				mu.Unlock()
				tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	if st := tr.Stats(); st.Recorded != writers*each || st.Retained != capacity {
		t.Fatalf("stats = %+v, want %d recorded, %d retained", st, writers*each, capacity)
	}
	want := map[uint64]bool{}
	for _, id := range order[len(order)-capacity:] {
		want[id] = true
	}
	for _, s := range tr.Snapshot() {
		if !want[s.ID] {
			t.Errorf("span %d is retained but is not among the last %d recorded", s.ID, capacity)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	if r.Capacity() != 0 || r.Snapshot() != nil || len(r.Subtree(1)) != 0 {
		t.Error("nil recorder must report an empty trace")
	}
	if st := r.Stats(); st.Recorded != 0 || st.Retained != 0 {
		t.Errorf("nil recorder stats = %+v", st)
	}
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if tr := decodeChrome(t, buf.Bytes()); len(tr.TraceEvents) != 1 || tr.OtherData != (RecorderStats{}) {
		t.Errorf("nil recorder trace = %+v, want the process_name event and zero stats", tr)
	}
}

// chromeTrace is the shape every trace the recorder writes decodes to.
type chromeTrace struct {
	TraceEvents []json.RawMessage `json:"traceEvents"`
	OtherData   RecorderStats     `json:"otherData"`
}

func decodeChrome(t *testing.T, b []byte) chromeTrace {
	t.Helper()
	var tr chromeTrace
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if tr.TraceEvents == nil {
		t.Fatalf("chrome trace has no traceEvents list: %s", b)
	}
	return tr
}

// goldenRecorder is a ring of 7 that has recorded 9 fixed spans: two
// overwritten, a run.set with two clips that need two worker lanes, two
// cameras (one span nested under a camera span) and two error spans.
func goldenRecorder() *Recorder {
	r := NewRecorder(7)
	for _, s := range []SpanRecord{
		{ID: 1, Name: "old", StartNS: 0, DurNS: 10, Clip: -1},
		{ID: 2, Name: "old", StartNS: 5, DurNS: 10, Clip: -1},
		{ID: 3, Name: "run.set", StartNS: 100, DurNS: 5000, Clip: -1, Stage: "extract"},
		{ID: 4, Parent: 3, Name: "run.clip", StartNS: 200, DurNS: 2000, Clip: 0, Stage: "extract"},
		{ID: 5, Parent: 3, Name: "run.clip", StartNS: 300, DurNS: 2500, Clip: 1, Stage: "extract"},
		{ID: 6, Name: "ingest.clip", StartNS: 400, DurNS: 1500, Camera: "cam1", Clip: 0, Stage: "ingest"},
		{ID: 7, Name: "ingest.clip", StartNS: 450, DurNS: 1200, Camera: "cam0", Clip: 0, Stage: "ingest", Err: true},
		{ID: 8, Parent: 7, Name: "detect", StartNS: 500, DurNS: 100, Clip: -1},
		{ID: 9, Name: "http.v1_query_count", StartNS: 1234567, DurNS: 891, Clip: -1, Stage: "serve", Err: true},
	} {
		r.record(s)
	}
	return r
}

// TestChromeGolden pins the one trace format: over fixed records, the
// traceEvents array is byte-identical to testdata/chrome.golden.json (what
// WriteChrome wrote before it carried otherData), and otherData is the
// ring's Stats.
func TestChromeGolden(t *testing.T) {
	r := goldenRecorder()
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "chrome.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	events := func(b []byte) json.RawMessage {
		var v struct {
			TraceEvents json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		return v.TraceEvents
	}
	if got, want := events(buf.Bytes()), events(golden); !bytes.Equal(got, want) {
		t.Errorf("traceEvents differ from the golden file:\n got %s\nwant %s", got, want)
	}
	got := decodeChrome(t, buf.Bytes())
	if st := r.Stats(); got.OtherData != st || st.Overwritten != 2 {
		t.Errorf("otherData = %+v, want Stats() %+v with 2 overwritten", got.OtherData, st)
	}
}

// TestTraceFile pins the CLIs' -trace-out file: the installed recorder as
// WriteChrome renders it, and an error for a path that cannot be created.
func TestTraceFile(t *testing.T) {
	SetRecorder(goldenRecorder())
	defer SetRecorder(nil)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := CurrentRecorder().WriteChrome(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("trace file differs from WriteChrome:\n got %s\nwant %s", got, want.Bytes())
	}
	if tr := decodeChrome(t, got); tr.OtherData.Capacity != 7 {
		t.Errorf("trace file otherData = %+v", tr.OtherData)
	}
	if err := WriteTraceFile(filepath.Join(t.TempDir(), "no", "such", "dir")); err == nil {
		t.Error("unwritable path reported no error")
	}
}

func TestChromeExport(t *testing.T) {
	tr := EnableTracing(64)
	defer SetRecorder(nil)

	ctx, set := StartSpan(context.Background(), "run.set")
	_, clip := StartSpan(ctx, "run.clip")
	clip.SetClip(0)
	clip.End()
	set.End()
	_, cam := StartSpan(context.Background(), "ingest.clip")
	cam.SetCamera("cam0").SetClip(1)
	cam.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var complete, meta int
	byName := map[string]int{}
	for i, e := range out.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			byName[e.Name] = i
			if e.PID != 1 || e.TID < 1 {
				t.Errorf("event %q has pid=%d tid=%d", e.Name, e.PID, e.TID)
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected event phase %q", e.Ph)
		}
	}
	if complete != 3 {
		t.Fatalf("chrome trace has %d complete events, want 3", complete)
	}
	if meta < 2 { // process_name + at least one thread_name
		t.Errorf("chrome trace has %d metadata events, want >= 2", meta)
	}
	set2, clip2 := out.TraceEvents[byName["run.set"]], out.TraceEvents[byName["run.clip"]]
	if clip2.Args["parent"] != set2.Args["id"] {
		t.Errorf("run.clip parent arg %v != run.set id %v", clip2.Args["parent"], set2.Args["id"])
	}
	if clip2.TID != set2.TID {
		t.Errorf("nested spans on different lanes: clip tid %d, set tid %d", clip2.TID, set2.TID)
	}
	if clip2.TS < set2.TS || clip2.TS+clip2.Dur > set2.TS+set2.Dur+1e-6 {
		t.Errorf("child [%v, %v] not inside parent [%v, %v]",
			clip2.TS, clip2.TS+clip2.Dur, set2.TS, set2.TS+set2.Dur)
	}
	camEv := out.TraceEvents[byName["ingest.clip"]]
	if camEv.Args["camera"] != "cam0" {
		t.Errorf("camera arg = %v", camEv.Args["camera"])
	}
	if camEv.TID == set2.TID {
		t.Error("camera span must get its own lane")
	}
}

func TestSubtree(t *testing.T) {
	tr := EnableTracing(64)
	defer SetRecorder(nil)

	ctx, root := StartSpan(context.Background(), "http.query")
	cctx, child := StartSpan(ctx, "store.count")
	_, grand := StartSpan(cctx, "store.scan")
	grand.End()
	child.End()
	root.End()
	_, other := StartSpan(context.Background(), "unrelated")
	other.End()

	sub := tr.Subtree(root.ID())
	if len(sub) != 3 {
		t.Fatalf("subtree has %d spans, want 3: %+v", len(sub), sub)
	}
	if sub[0].Name != "http.query" || sub[1].Name != "store.count" || sub[2].Name != "store.scan" {
		t.Errorf("subtree order = %q %q %q", sub[0].Name, sub[1].Name, sub[2].Name)
	}
}

// TestTraceGauges asserts the satellite contract: ring occupancy and
// overwritten-span counts are visible as trace.* gauges in any registry
// snapshot, not only in a trace's otherData.
func TestTraceGauges(t *testing.T) {
	EnableTracing(8)
	defer SetRecorder(nil)
	for i := 0; i < 12; i++ {
		_, sp := StartSpan(context.Background(), "g")
		sp.End()
	}
	g := Default.Snapshot().Gauges
	if g["trace.capacity"] != 8 {
		t.Errorf("trace.capacity = %v, want 8", g["trace.capacity"])
	}
	if g["trace.spans_recorded"] != 12 {
		t.Errorf("trace.spans_recorded = %v, want 12", g["trace.spans_recorded"])
	}
	if g["trace.spans_overwritten"] != 4 {
		t.Errorf("trace.spans_overwritten = %v, want 4", g["trace.spans_overwritten"])
	}
	if g["trace.utilization"] != 1 {
		t.Errorf("trace.utilization = %v, want 1", g["trace.utilization"])
	}

	SetRecorder(nil)
	g = Default.Snapshot().Gauges
	if _, ok := g["trace.capacity"]; ok {
		t.Error("trace gauges must disappear when the recorder is removed")
	}
}

func TestProgressEmit(t *testing.T) {
	var got []Event
	var p Progress = func(e Event) { got = append(got, e) }
	p.Emit(Event{Kind: EventClip, Index: 1})
	var nilP Progress
	nilP.Emit(Event{Kind: EventClip}) // must not panic
	if len(got) != 1 || got[0].Kind != EventClip {
		t.Errorf("events = %+v", got)
	}
}
