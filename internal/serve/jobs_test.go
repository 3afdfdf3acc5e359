package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otif/internal/core"
	"otif/internal/obs"
)

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not reach a terminal state (now %q)", j.ID(), j.State())
	}
	if got := j.State(); got != want {
		t.Fatalf("job %s state = %q, want %q", j.ID(), got, want)
	}
}

func TestJobLifecycleDone(t *testing.T) {
	m := NewManager()
	defer m.Close()
	m.Register("ok", func(ctx context.Context, job *Job) (any, error) {
		for i := 0; i < 3; i++ {
			obs.ProgressFrom(ctx).Emit(obs.Event{Kind: obs.EventClip, Index: i, Total: 3, Runtime: 0.5})
		}
		return map[string]int{"clips": 3}, nil
	})
	j, err := m.Submit("ok", map[string]string{"set": "test"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobDone)
	v := j.View()
	if v.Error != "" || v.Result == nil || v.Started == nil || v.Finished == nil {
		t.Errorf("done view incomplete: %+v", v)
	}
	// Events: running + 3 clips + done = 5, in order with contiguous seq.
	backlog, _ := j.since(0)
	if len(backlog) != 5 {
		t.Fatalf("backlog has %d events, want 5: %+v", len(backlog), backlog)
	}
	for i, e := range backlog {
		if e.Seq != int64(i+1) {
			t.Errorf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
	}
	if backlog[0].Kind != "state" || backlog[0].State != JobRunning {
		t.Errorf("first event = %+v, want running state", backlog[0])
	}
	if last := backlog[len(backlog)-1]; last.Kind != "state" || last.State != JobDone {
		t.Errorf("last event = %+v, want done state", last)
	}
}

func TestJobFailureSurfacesPartialError(t *testing.T) {
	m := NewManager()
	defer m.Close()
	m.Register("partial", func(ctx context.Context, job *Job) (any, error) {
		return nil, &core.PartialError{Stage: "extract", Done: 2, Total: 5, Err: errors.New("disk on fire")}
	})
	j, _ := m.Submit("partial", nil)
	waitState(t, j, JobFailed)
	v := j.View()
	if v.Partial == nil || v.Partial.Stage != "extract" || v.Partial.Done != 2 || v.Partial.Total != 5 {
		t.Errorf("partial info = %+v, want extract 2/5", v.Partial)
	}
	if v.Error == "" {
		t.Error("failed job has empty error")
	}
}

func TestJobCancel(t *testing.T) {
	m := NewManager()
	defer m.Close()
	started := make(chan struct{})
	m.Register("slow", func(ctx context.Context, job *Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, &core.PartialError{Stage: "extract", Done: 1, Total: 4, Err: ctx.Err()}
	})
	j, _ := m.Submit("slow", nil)
	<-started
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobCanceled)
	v := j.View()
	if v.Partial == nil || v.Partial.Done != 1 {
		t.Errorf("canceled job partial = %+v, want 1/4", v.Partial)
	}
	// Cancel on a terminal job is a no-op.
	if err := m.Cancel(j.ID()); err != nil {
		t.Errorf("cancel on terminal job: %v", err)
	}
}

func TestJobCancelBeforeRunObserved(t *testing.T) {
	m := NewManager()
	defer m.Close()
	m.Register("ctx", func(ctx context.Context, job *Job) (any, error) {
		// The runner sees an already-canceled context if cancel arrived
		// while the job was still pending.
		<-ctx.Done()
		return nil, ctx.Err()
	})
	j, _ := m.Submit("ctx", nil)
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobCanceled)
}

// TestFinishedJobsAreForgotten submits far more instant jobs than the
// manager retains: the list stays bounded, the newest job is still there,
// the oldest answers like an unknown id, and a job still running is kept
// however old it is.
func TestFinishedJobsAreForgotten(t *testing.T) {
	m := NewManager()
	defer m.Close()
	m.Register("noop", func(ctx context.Context, j *Job) (any, error) { return nil, nil })
	m.Register("block", func(ctx context.Context, j *Job) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	running, err := m.Submit("block", nil)
	if err != nil {
		t.Fatal(err)
	}
	var first, last *Job
	for i := 0; i < 200; i++ {
		j, err := m.Submit("noop", nil)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, JobDone)
		if first == nil {
			first = j
		}
		last = j
	}
	if got := len(m.List()); got > retainedJobs+1 {
		t.Errorf("List holds %d jobs after 200 finished, want at most %d and the running one", got, retainedJobs)
	}
	if _, ok := m.Get(last.ID()); !ok {
		t.Error("the newest finished job is gone")
	}
	if _, ok := m.Get(first.ID()); ok {
		t.Error("the oldest finished job is still held")
	}
	if _, ok := m.Get(running.ID()); !ok || m.List()[0].ID != running.ID() {
		t.Error("the running job was forgotten")
	}
	rec := httptest.NewRecorder()
	(&Server{Manager: m}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+first.ID(), nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /jobs/%s = %d, want 404", first.ID(), rec.Code)
	}
}

func TestSubmitUnknownKind(t *testing.T) {
	m := NewManager()
	defer m.Close()
	if _, err := m.Submit("nope", nil); err == nil {
		t.Fatal("submitting an unknown kind succeeded")
	}
}

func TestEventRingBounded(t *testing.T) {
	const clips = jobEvents + 100
	m := NewManager()
	defer m.Close()
	m.Register("chatty", func(ctx context.Context, job *Job) (any, error) {
		for i := 0; i < clips; i++ {
			obs.ProgressFrom(ctx).Emit(obs.Event{Kind: obs.EventClip, Index: i, Total: clips})
		}
		return nil, nil
	})
	j, _ := m.Submit("chatty", nil)
	waitState(t, j, JobDone)
	backlog, _ := j.since(0)
	if len(backlog) != jobEvents {
		t.Fatalf("backlog holds %d events, want ring capacity %d", len(backlog), jobEvents)
	}
	v := j.View()
	if v.Events != clips+2 { // running + clips + done
		t.Errorf("total events = %d, want %d", v.Events, clips+2)
	}
	if v.Dropped != clips+2-jobEvents {
		t.Errorf("dropped = %d, want %d", v.Dropped, clips+2-jobEvents)
	}
	// The retained tail is the newest events, ending in the done state.
	if last := backlog[len(backlog)-1]; last.State != JobDone {
		t.Errorf("last retained event = %+v, want done state", last)
	}
	if backlog[0].Seq != v.Events-jobEvents+1 {
		t.Errorf("oldest retained seq = %d, want %d", backlog[0].Seq, v.Events-jobEvents+1)
	}
}

// chattyJob submits a job whose runner waits for release, then emits the
// given number of clip events: its events are running, the clips, done.
func chattyJob(t *testing.T, m *Manager, clips int, release <-chan struct{}) *Job {
	t.Helper()
	m.Register("chatty", func(ctx context.Context, job *Job) (any, error) {
		<-release
		for i := 0; i < clips; i++ {
			obs.ProgressFrom(ctx).Emit(obs.Event{Kind: obs.EventClip, Index: i, Total: clips})
		}
		return nil, nil
	})
	j, err := m.Submit("chatty", nil)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestEventRingStalledCursor holds a cursor that never advances while ten
// rings' worth of events are published: no publish waits on its reader,
// the job holds at most jobEvents events, and the reader was woken.
func TestEventRingStalledCursor(t *testing.T) {
	const clips = 10 * jobEvents
	m := NewManager()
	defer m.Close()
	release := make(chan struct{})
	j := chattyJob(t, m, clips, release)
	_, changed := j.since(0) // a reader that never reads again
	close(release)
	waitState(t, j, JobDone)
	select {
	case <-changed:
	default:
		t.Error("the stalled reader was never woken")
	}
	j.mu.Lock()
	held := len(j.ring)
	j.mu.Unlock()
	if held > jobEvents {
		t.Errorf("job holds %d events, want at most %d", held, jobEvents)
	}
	// The reader resumes past a gap, at the oldest retained event.
	if events, _ := j.since(0); events[0].Seq != clips+2-jobEvents+1 {
		t.Errorf("a read from seq 0 starts at seq %d, want %d", events[0].Seq, clips+2-jobEvents+1)
	}
}

// sseEvents decodes the data frames of an event stream.
func sseEvents(r io.Reader) ([]JobEvent, error) {
	var out []JobEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e JobEvent
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// TestSSEResumesAtLastEventID: a client reconnecting with Last-Event-ID
// gets only the events after it, one at or past a finished job's last seq
// gets an empty stream, and a header that is not a non-negative integer
// gets 400.
func TestSSEResumesAtLastEventID(t *testing.T) {
	m := NewManager()
	defer m.Close()
	release := make(chan struct{})
	close(release)
	j := chattyJob(t, m, 3, release) // seqs 1 to 5
	waitState(t, j, JobDone)
	srv := newTestServer(t, m, nil)
	client := &http.Client{Timeout: 10 * time.Second} // a stream that does not end fails
	for _, c := range []struct {
		id   string
		code int
		seqs []int64
	}{
		{"", http.StatusOK, []int64{1, 2, 3, 4, 5}},
		{"0", http.StatusOK, []int64{1, 2, 3, 4, 5}},
		{"3", http.StatusOK, []int64{4, 5}},
		{"5", http.StatusOK, nil},
		{"99", http.StatusOK, nil},
		{"-1", http.StatusBadRequest, nil},
		{"+3", http.StatusBadRequest, nil},
		{"3.0", http.StatusBadRequest, nil},
		{"x", http.StatusBadRequest, nil},
		{"9223372036854775808", http.StatusBadRequest, nil},
	} {
		req, err := http.NewRequest("GET", srv.URL+"/jobs/"+j.ID()+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.id != "" {
			req.Header.Set("Last-Event-ID", c.id)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var seqs []int64
		if resp.StatusCode == http.StatusOK {
			events, err := sseEvents(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events {
				seqs = append(seqs, e.Seq)
			}
		}
		resp.Body.Close()
		if resp.StatusCode != c.code || !reflect.DeepEqual(seqs, c.seqs) {
			t.Errorf("Last-Event-ID %q: status %d, seqs %v; want %d, %v", c.id, resp.StatusCode, seqs, c.code, c.seqs)
		}
	}
}

// TestSSEManyReaders opens 32 event streams on one job that emits more
// events than its ring holds: each stream's seq rises strictly and ends
// with the done event, every handler returns once the job ends, and no
// goroutine is left behind.
func TestSSEManyReaders(t *testing.T) {
	const readers = 32
	m := NewManager()
	defer m.Close()
	var handlers atomic.Int32
	h := (&Server{Manager: m, Registry: obs.NewRegistry()}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlers.Add(1)
		defer handlers.Add(-1)
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	base := runtime.NumGoroutine()

	release := make(chan struct{})
	j := chattyJob(t, m, 2*jobEvents, release)
	streams := make([][]JobEvent, readers)
	errs := make([]error, readers)
	var attached, finished sync.WaitGroup
	attached.Add(readers)
	finished.Add(readers)
	for i := range streams {
		go func() {
			defer finished.Done()
			resp, err := client.Get(srv.URL + "/jobs/" + j.ID() + "/events")
			if err != nil {
				errs[i] = err
				attached.Done()
				return
			}
			defer resp.Body.Close()
			// The first frame, the running event, arrives before release:
			// the stream is open.
			br := bufio.NewReader(resp.Body)
			var first strings.Builder
			for line := ""; err == nil && line != "\n"; {
				line, err = br.ReadString('\n')
				first.WriteString(line)
			}
			attached.Done()
			if err != nil {
				errs[i] = err
				return
			}
			streams[i], errs[i] = sseEvents(io.MultiReader(strings.NewReader(first.String()), br))
		}()
	}
	attached.Wait()
	close(release)
	waitState(t, j, JobDone)
	finished.Wait()
	if n := handlers.Load(); n != 0 {
		t.Errorf("%d event handlers still running after the job ended", n)
	}
	for i, events := range streams {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if len(events) == 0 || events[0].State != JobRunning {
			t.Fatalf("stream %d does not start with the running event", i)
		}
		for k := 1; k < len(events); k++ {
			if events[k].Seq <= events[k-1].Seq {
				t.Fatalf("stream %d: seq %d after %d", i, events[k].Seq, events[k-1].Seq)
			}
		}
		if events[len(events)-1].State != JobDone {
			t.Fatalf("stream %d does not end with the done event: %d events", i, len(events))
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the streams ended, %d before", n, base)
	}
}

// newTestServer wires a manager into the full handler stack.
func newTestServer(t *testing.T, m *Manager, ready func() bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer((&Server{Manager: m, Registry: obs.NewRegistry(), Ready: ready}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestHTTPJobEndpoints(t *testing.T) {
	m := NewManager()
	defer m.Close()
	release := make(chan struct{})
	m.Register("gated", func(ctx context.Context, job *Job) (any, error) {
		obs.ProgressFrom(ctx).Emit(obs.Event{Kind: obs.EventClip, Index: 0, Total: 2, Runtime: 0.25})
		select {
		case <-release:
			return "finished", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv := newTestServer(t, m, nil)

	// Submit.
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"gated","params":{"set":"test"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs status = %d, want 202", resp.StatusCode)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.ID == "" || view.Kind != "gated" {
		t.Fatalf("submit view = %+v", view)
	}

	// SSE: read frames until the clip event arrives.
	sseResp, err := http.Get(srv.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	sawClip := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "event: clip") {
				close(sawClip)
				return
			}
		}
	}()
	select {
	case <-sawClip:
	case <-time.After(10 * time.Second):
		t.Fatal("no clip event over SSE")
	}

	// List shows the running job.
	var list struct {
		Kinds []string  `json:"kinds"`
		Jobs  []JobView `json:"jobs"`
	}
	getJSON(t, srv.URL+"/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].State != JobRunning {
		t.Fatalf("list = %+v, want one running job", list)
	}
	if len(list.Kinds) != 1 || list.Kinds[0] != "gated" {
		t.Fatalf("kinds = %v", list.Kinds)
	}

	close(release)
	j, _ := m.Get(view.ID)
	waitState(t, j, JobDone)
	var got JobView
	getJSON(t, srv.URL+"/jobs/"+view.ID, &got)
	if got.State != JobDone || got.Result != "finished" {
		t.Fatalf("GET /jobs/{id} after completion = %+v", got)
	}

	// Unknown job is a JSON 404.
	r404, err := http.Get(srv.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job status = %d, want 404", r404.StatusCode)
	}
}

// TestHTTPJobSubmitBodyTooLarge: POST /jobs refuses a body past
// maxBodyBytes with 413 and submits nothing.
func TestHTTPJobSubmitBodyTooLarge(t *testing.T) {
	m := NewManager()
	defer m.Close()
	m.Register("noop", func(context.Context, *Job) (any, error) { return nil, nil })
	srv := newTestServer(t, m, nil)
	body := `{"kind":"noop","params":{"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /jobs with a %d-byte body: status = %d, want 413", len(body), resp.StatusCode)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Errorf("an oversized submit created %d jobs", len(jobs))
	}
}

// TestJobEventKeys pins the JSON keys of /jobs/{id}/events frames: a
// state frame and one frame of each progress kind, every field its kind
// documents set, decode to the keys they had when JobEvent copied
// obs.Event field by field.
func TestJobEventKeys(t *testing.T) {
	m := NewManager()
	defer m.Close()
	m.Register("all", func(ctx context.Context, job *Job) (any, error) {
		for _, e := range []obs.Event{
			{Kind: obs.EventTuneIter, Iteration: 1, Total: 3},
			{Kind: obs.EventCandidate, Iteration: 1, Index: 2, Config: "c", Runtime: 1.5, Accuracy: 0.5},
			{Kind: obs.EventClip, Index: 1, Total: 2, Runtime: 0.25},
			{Kind: obs.EventCacheSnapshot, CacheHitRate: 0.75},
			{Kind: obs.EventIngestClip, Index: 3, Config: "cam0", Runtime: 0.5},
		} {
			obs.ProgressFrom(ctx)(e)
		}
		return nil, errors.New("boom")
	})
	srv := newTestServer(t, m, nil)
	j, _ := m.Submit("all", nil)
	waitState(t, j, JobFailed)
	resp, err := http.Get(srv.URL + "/jobs/" + j.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var frame map[string]any
		if err := json.Unmarshal([]byte(data), &frame); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(frame))
		for k := range frame {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		got = append(got, fmt.Sprintf("%v %v", frame["kind"], keys))
	}
	want := []string{
		"state [kind seq state]",
		"tune.iter [iteration kind seq total]",
		"tune.candidate [accuracy config index iteration kind runtime seq]",
		"clip [index kind runtime seq total]",
		"cache [cache_hit_rate kind seq]",
		"ingest.clip [config index kind runtime seq]",
		"state [error kind seq state]",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("event frames:\n got %q\nwant %q", got, want)
	}
}

func TestHTTPCancelEndpoint(t *testing.T) {
	m := NewManager()
	defer m.Close()
	started := make(chan struct{})
	m.Register("slow", func(ctx context.Context, job *Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	srv := newTestServer(t, m, nil)
	j, _ := m.Submit("slow", nil)
	<-started
	resp, err := http.Post(srv.URL+"/jobs/"+j.ID()+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200", resp.StatusCode)
	}
	waitState(t, j, JobCanceled)
}

func TestHealthAndReadiness(t *testing.T) {
	ready := false
	m := NewManager()
	defer m.Close()
	srv := newTestServer(t, m, func() bool { return ready })

	status := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready = %d, want 503", got)
	}
	ready = true
	if got := status("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz after ready = %d, want 200", got)
	}
	if got := status("/debug/pprof/"); got != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d, want 200", got)
	}
}

func TestMetricsEndpointServesRegistry(t *testing.T) {
	m := NewManager()
	defer m.Close()
	reg := obs.NewRegistry()
	reg.Counter("run.clips").Add(4)
	srv := httptest.NewServer((&Server{Manager: m, Registry: reg}).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fmt.Fprintln(&buf, sc.Text())
	}
	if !strings.Contains(buf.String(), "otif_run_clips_total 4") {
		t.Errorf("/metrics output missing counter:\n%s", buf.String())
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
