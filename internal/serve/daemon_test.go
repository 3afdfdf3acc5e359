package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"otif"
	"otif/internal/persist"
	"otif/internal/query"
	"otif/internal/store"
)

// These tests drive the daemon the way otifd's CI smoke script used to:
// over HTTP, on a caldot1 of 2 clips × 2 seconds per set, which trains and
// tunes in a fraction of a second.

// testDaemon is one daemon behind an httptest server.
type testDaemon struct {
	*Daemon
	t   *testing.T
	url string
}

func testConfig() Config {
	return Config{Dataset: "caldot1", Clips: 2, Seconds: 2, Seed: 7}
}

// newTestDaemon serves a daemon built from cfg; the pipeline is not started.
func newTestDaemon(t *testing.T, cfg Config) *testDaemon {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		d.Close()
		srv.Close()
	})
	return &testDaemon{Daemon: d, t: t, url: srv.URL}
}

// readyTestDaemon is newTestDaemon with the pipeline trained and tuned.
func readyTestDaemon(t *testing.T, cfg Config) *testDaemon {
	t.Helper()
	d := newTestDaemon(t, cfg)
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return d
}

// do performs one request and returns the status and body. It is safe off
// the test goroutine: failures are reported with t.Error and status 0.
func (d *testDaemon) do(method, path, body string) (int, []byte) {
	req, err := http.NewRequest(method, d.url+path, strings.NewReader(body))
	if err != nil {
		d.t.Error(err)
		return 0, nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Error(err)
		return 0, nil
	}
	return resp.StatusCode, b
}

func (d *testDaemon) get(path string) (int, []byte) { return d.do("GET", path, "") }

// ok is get that requires a 200.
func (d *testDaemon) ok(path string) []byte {
	d.t.Helper()
	code, body := d.get(path)
	if code != http.StatusOK {
		d.t.Fatalf("GET %s = %d: %s", path, code, body)
	}
	return body
}

// submit posts a job and returns its record.
func (d *testDaemon) submit(kind string, params map[string]string) *Job {
	d.t.Helper()
	body, _ := json.Marshal(submitRequest{Kind: kind, Params: params})
	code, resp := d.do("POST", "/jobs", string(body))
	if code != http.StatusAccepted {
		d.t.Fatalf("POST /jobs %s = %d: %s", body, code, resp)
	}
	var v JobView
	if err := json.Unmarshal(resp, &v); err != nil {
		d.t.Fatal(err)
	}
	j, ok := d.jobs.Get(v.ID)
	if !ok {
		d.t.Fatalf("submitted job %q not in the manager", v.ID)
	}
	return j
}

// run submits a job and waits for it to end in state want.
func (d *testDaemon) run(kind string, params map[string]string, want JobState) JobView {
	d.t.Helper()
	j := d.submit(kind, params)
	waitState(d.t, j, want)
	return j.View()
}

// eventually polls cond until it holds, failing the test after 30 seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// clipsServed is how many clips /v1/datasets reports for the default dataset.
func (d *testDaemon) clipsServed() int {
	view, _ := d.defaultDataset()
	return view.Clips
}

type countResponse struct {
	PerClip []int `json:"per_clip"`
	Total   int   `json:"total"`
}

// count answers /v1/query/count for all categories over the default dataset.
func (d *testDaemon) count() countResponse {
	d.t.Helper()
	var c countResponse
	if err := json.Unmarshal(d.ok("/v1/query/count"), &c); err != nil {
		d.t.Fatal(err)
	}
	return c
}

// defaultDataset reads the default dataset's row of /v1/datasets.
func (d *testDaemon) defaultDataset() (view datasetView, names []string) {
	d.t.Helper()
	var resp struct {
		Default  string        `json:"default"`
		Datasets []datasetView `json:"datasets"`
	}
	if err := json.Unmarshal(d.ok("/v1/datasets"), &resp); err != nil {
		d.t.Fatal(err)
	}
	if resp.Default != d.cfg.Dataset {
		d.t.Fatalf("/v1/datasets default = %q, want %q", resp.Default, d.cfg.Dataset)
	}
	for _, v := range resp.Datasets {
		names = append(names, v.Name)
		if v.Name == resp.Default {
			view = v
		}
	}
	return view, names
}

// streamed reports whether a /v1/datasets row is an ingest session's live
// store: its manifest ends in the open tail segment, where an extract's
// and segment files' segments are all sealed. A live store of a multiple
// of store.DefaultSealClips clips has no tail; these tests' streams stop
// long before eight clips.
func streamed(v datasetView) bool {
	segs := v.Manifest.Segments
	return len(segs) > 0 && !segs[len(segs)-1].Sealed
}

// TestJobsBeforeReadyFail pins the daemon before Start: it is live but not
// ready, every job kind fails with the not-ready message, the default
// dataset is named but not loaded, and /v1/streams already answers.
func TestJobsBeforeReadyFail(t *testing.T) {
	d := newTestDaemon(t, testConfig())
	if code, _ := d.get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d before ready", code)
	}
	if code, _ := d.get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d before ready, want 503", code)
	}
	for _, kind := range []string{"extract", "stream"} {
		v := d.run(kind, nil, JobFailed)
		if v.Error != errNotReady.Error() {
			t.Errorf("%s before ready: error %q, want %q", kind, v.Error, errNotReady)
		}
	}
	if code, _ := d.get("/v1/query/count"); code != http.StatusServiceUnavailable {
		t.Errorf("/v1/query/count = %d with nothing published, want 503", code)
	}
	if view, names := d.defaultDataset(); view.Ready || len(names) != 1 {
		t.Errorf("/v1/datasets = %+v %v, want only the default, not ready", view, names)
	}
	if body := d.ok("/v1/streams"); !bytes.Contains(body, []byte(`"streaming": false`)) {
		t.Errorf("/v1/streams = %s", body)
	}
	if code, _ := d.get("/v1/query/breakdown"); code != http.StatusServiceUnavailable {
		t.Errorf("/v1/query/breakdown = %d with nothing published, want 503", code)
	}
}

// TestStartFailures pins what makes NewDaemon and Start return an error
// (otifd then exits 1).
func TestStartFailures(t *testing.T) {
	cfg := testConfig()
	cfg.SegmentsDir = t.TempDir()
	if _, err := NewDaemon(cfg); !errors.Is(err, otif.ErrNoSegments) {
		t.Errorf("NewDaemon with an empty -segments-dir: err = %v, want otif.ErrNoSegments", err)
	}
	if err := os.WriteFile(filepath.Join(cfg.SegmentsDir, "bad.otifseg"), []byte("OTIFSEG1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDaemon(cfg); err == nil {
		t.Error("NewDaemon with a truncated segment file succeeded")
	}
	// A well-formed segment whose header names no dataset has no registry
	// entry to go under (Registry.Register panics on "").
	cfg.SegmentsDir = t.TempDir()
	if _, err := store.ExportSegments(cfg.SegmentsDir, "", query.Context{FPS: 10, Frames: 10}, [][]*query.Track{nil}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDaemon(cfg); err == nil || !strings.Contains(err.Error(), "seg-00000.otifseg") {
		t.Errorf("NewDaemon with an unnamed dataset's segment: err = %v, want one naming the file", err)
	}
	cfg = testConfig()
	cfg.Dataset = "no-such-dataset"
	d := newTestDaemon(t, cfg)
	if err := d.Start(context.Background()); err == nil {
		t.Error("Start with an unknown dataset succeeded")
	}
	if code, _ := d.get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d after a failed Start, want 503", code)
	}
}

// TestExtractJobs runs extract jobs on a ready daemon: a finished one
// relays its clips' progress and publishes its tracks to /v1/query/*, a
// bad parameter fails one, and the routes they touched show up in
// /metrics.
func TestExtractJobs(t *testing.T) {
	d := readyTestDaemon(t, testConfig())
	if body := d.ok("/readyz"); !bytes.Contains(body, []byte("ready")) {
		t.Errorf("/readyz = %s", body)
	}
	if code, _ := d.get("/v1/query/count"); code != http.StatusServiceUnavailable {
		t.Errorf("/v1/query/count = %d before any extract, want 503", code)
	}

	v := d.run("extract", map[string]string{"set": "test"}, JobDone)
	res, _ := v.Result.(map[string]any)
	if res["set"] != "test" || res["clips"] != 2 || res["config"] == "" {
		t.Errorf("extract result = %+v", v.Result)
	}
	// Running, one clip event per clip, done.
	if v.Events != 4 {
		t.Errorf("extract job has %d events, want 4: it relayed no progress events", v.Events)
	}
	got := d.count()
	if len(got.PerClip) != 2 {
		t.Errorf("count after extract = %+v, want 2 clips", got)
	}
	view, _ := d.defaultDataset()
	if !view.Ready || view.Clips != 2 {
		t.Errorf("default dataset after extract = %+v", view)
	}
	// An extracted set is sealed segments, as its export is, and shows
	// their manifest.
	want := []store.SegmentInfo{{ID: store.SegmentID(0), Clips: 2, Tracks: got.Total, Sealed: true}}
	if m := view.Manifest; m.Dataset != "caldot1" || m.Clips != 2 || !reflect.DeepEqual(m.Segments, want) {
		t.Errorf("manifest after extract = %+v, want one sealed segment of the extract's 2 clips", m)
	}
	// The validation set has its own clips; the newer extract answers.
	d.run("extract", map[string]string{"set": "val", "tolerance": "0.2"}, JobDone)

	if v := d.run("extract", map[string]string{"tolerance": "lots"}, JobFailed); !strings.Contains(v.Error, "bad tolerance") {
		t.Errorf("bad tolerance: error %q", v.Error)
	}
	if v := d.run("extract", map[string]string{"set": "nope"}, JobFailed); !strings.Contains(v.Error, "unknown set") {
		t.Errorf("bad set: error %q", v.Error)
	}
	// A misspelled field of the body is refused, not ignored: this one
	// would have extracted the test set on defaults.
	if code, body := d.do("POST", "/jobs", `{"kind":"extract","parms":{"set":"val"}}`); code != http.StatusBadRequest || !bytes.Contains(body, []byte("parms")) {
		t.Errorf(`POST /jobs with "parms" = %d %s, want 400 naming the field`, code, body)
	}
	// Nor is a repeated one half read.
	if code, body := d.do("POST", "/jobs", `{"kind":"extract","params":{"tolerance":"NaN","tolerance":"0.1"}}`); code != http.StatusBadRequest || !bytes.Contains(body, []byte("tolerance")) {
		t.Errorf("POST /jobs with tolerance twice = %d %s, want 400 naming it", code, body)
	}
	// Nothing changes the tuned curve after Start, so there is no job that
	// recomputes it.
	if code, body := d.do("POST", "/jobs", `{"kind":"tune"}`); code != http.StatusBadRequest || !bytes.Contains(body, []byte("unknown job kind")) {
		t.Errorf("POST /jobs tune = %d %s, want 400 unknown job kind", code, body)
	}

	metrics := string(d.ok("/metrics"))
	for _, series := range []string{
		"# TYPE otif_",
		"\notif_tune_iterations_total ",
		"otif_serve_route_v1_query_count_seconds",
		"\notif_serve_route_v1_query_count_requests_total ",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	if body := d.ok("/v1/debug/slow"); !bytes.Contains(body, []byte(`"route": "v1_query_count"`)) {
		t.Errorf("/v1/debug/slow does not hold the count request: %s", body)
	}
}

var (
	trackSetOnce sync.Once
	trackSet     *otif.TrackSet
	trackSetErr  error
)

// writeSegments saves two streamed clips of 5 seconds (the 2-second sets
// are too short to hold many tracks) as segment files and returns their
// directory and the set.
func writeSegments(t *testing.T) (string, *otif.TrackSet) {
	t.Helper()
	trackSetOnce.Do(func() {
		p, err := otif.Open("caldot1", otif.Options{ClipsPerSet: 2, ClipSeconds: 2})
		if err != nil {
			trackSetErr = err
			return
		}
		p.Train()
		sess, err := p.Ingest(context.Background(), otif.IngestOptions{ClipsPerCamera: 2, ClipSeconds: 5})
		if err != nil {
			trackSetErr = err
			return
		}
		trackSetErr = sess.Wait()
		trackSet = sess.Tracks()
	})
	if trackSetErr != nil {
		t.Fatal(trackSetErr)
	}
	dir := t.TempDir()
	if _, err := trackSet.ExportSegments(dir); err != nil {
		t.Fatal(err)
	}
	return dir, trackSet
}

const dwellBody = `{"category":"car","region":[[0,0],[720,0],[720,480],[0,480]]}`

// TestTrackFileAnswersBeforeReady starts from -segments-dir: every query
// kind that needs no trained state answers while the pipeline is still
// down.
func TestTrackFileAnswersBeforeReady(t *testing.T) {
	cfg := testConfig()
	var ts *otif.TrackSet
	cfg.SegmentsDir, ts = writeSegments(t)
	d := newTestDaemon(t, cfg)
	if code, _ := d.get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d, want 503", code)
	}
	got, want := d.count(), ts.CountTracks("")
	if len(got.PerClip) != len(want) || got.Total == 0 {
		t.Fatalf("count = %+v, want the file's %v", got, want)
	}
	for i := range want {
		if got.PerClip[i] != want[i] {
			t.Fatalf("count = %+v, want the file's %v", got, want)
		}
	}
	if body := d.ok("/v1/query/limit?category=car&n=1&limit=2"); !bytes.Contains(body, []byte(`"per_clip"`)) {
		t.Errorf("limit = %s", body)
	}
	if code, body := d.do("POST", "/v1/query/dwell", dwellBody); code != http.StatusOK || !bytes.Contains(body, []byte(`"per_clip"`)) {
		t.Errorf("dwell = %d %s", code, body)
	}
	// Movements come from the pipeline: none yet, and all of them once ready.
	if code, _ := d.get("/v1/query/breakdown?category=car"); code != http.StatusNotFound {
		t.Errorf("breakdown before ready = %d, want 404", code)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	d.ok("/v1/query/breakdown?category=car")
}

// TestSegmentReplicaAnswersByteEqual serves a track set from one segment
// of every clip in one daemon and as segment files of one clip each from a
// second: the scatter-gather replica answers with the same bytes as the
// single segment, cold and from its result cache, and a second dataset in
// the directory registers under its own name.
func TestSegmentReplicaAnswersByteEqual(t *testing.T) {
	_, ts := writeSegments(t)
	qctx := ts.Context()
	perClip := make([][]*query.Track, ts.Clips())
	for i := range perClip {
		perClip[i] = ts.Tracks(i)
	}
	name := ts.Manifest().Dataset
	whole, err := store.NewSharded(name, qctx, store.SplitSegments(perClip, qctx, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	primary := newTestDaemon(t, testConfig())
	primary.publish(&otif.TrackSet{Querier: whole})

	cfg := testConfig()
	cfg.SegmentsDir = t.TempDir()
	if paths, err := store.ExportSegments(cfg.SegmentsDir, name, qctx, perClip, 1); err != nil || len(paths) != 2 {
		t.Fatalf("ExportSegments = %v, %v; want 2 files", paths, err)
	}
	other, err := os.Create(filepath.Join(cfg.SegmentsDir, "other"+".otifseg"))
	if err != nil {
		t.Fatal(err)
	}
	err = persist.WriteSegment(other, persist.SegmentMeta{
		Dataset: "other", ID: "seg-00000", FPS: qctx.FPS, NomW: qctx.NomW, NomH: qctx.NomH, Frames: qctx.Frames,
	}, [][]*query.Track{ts.Tracks(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
	replica := newTestDaemon(t, cfg)

	view, names := replica.defaultDataset()
	if strings.Join(names, ",") != "caldot1,other" {
		t.Errorf("replica datasets = %v, want caldot1 and other", names)
	}
	if len(view.Manifest.Segments) != 2 || view.Manifest.Segments[1].ID != "seg-00001" {
		t.Errorf("replica manifest = %+v, want seg-00000 and seg-00001", view.Manifest)
	}
	var otherCount countResponse
	if err := json.Unmarshal(replica.ok("/v1/query/count?dataset=other"), &otherCount); err != nil {
		t.Fatal(err)
	}
	if len(otherCount.PerClip) != 1 || otherCount.PerClip[0] != len(ts.Tracks(0)) {
		t.Errorf("count over dataset other = %+v, want one clip of %d tracks", otherCount, len(ts.Tracks(0)))
	}

	same := func(path string) {
		t.Helper()
		want, got := primary.ok(path), replica.ok(path)
		if !bytes.Equal(want, got) {
			t.Errorf("replica diverged on %s:\nprimary %s\nreplica %s", path, want, got)
		}
	}
	queries := []string{
		"/v1/query/count?category=car",
		"/v1/query/count?category=bus",
		"/v1/query/limit?category=car&n=1&limit=3&minsep=0.5",
	}
	for pass := 0; pass < 2; pass++ { // the second pass answers from the segment result cache
		for _, q := range queries {
			same(q)
		}
	}
	if !bytes.Contains(primary.ok(queries[0]), []byte(`"total"`)) {
		t.Error("count response has no total")
	}

	// Breakdown needs the movements: same dataset, same seed, same labels.
	for _, d := range []*testDaemon{primary, replica} {
		if err := d.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	same("/v1/query/breakdown?category=car")
}

// TestStreamJob pins the stream runner: bad parameters fail, one stream at
// a time, and the live store stays the default dataset's entry after the
// session ends (TestQueriesDuringStreamingIngest watches it grow).
func TestStreamJob(t *testing.T) {
	d := readyTestDaemon(t, testConfig())
	for _, params := range []map[string]string{
		{"cameras": "x"}, {"clips": "x"}, {"queue": "x"}, {"interval": "x"}, {"seconds": "x"},
	} {
		if v := d.run("stream", params, JobFailed); !strings.Contains(v.Error, "otifd: bad ") {
			t.Errorf("stream %v: error %q", params, v.Error)
		}
	}

	// Unbounded, so it is still running when the second one arrives.
	first := d.submit("stream", map[string]string{"cameras": "2", "queue": "1", "interval": "5ms"})
	// A job that holds a session holds the gate.
	eventually(t, "the stream's session", func() bool { return d.session.Load() != nil })
	if v := d.run("stream", nil, JobFailed); !strings.Contains(v.Error, "already running") {
		t.Errorf("second stream job: error %q", v.Error)
	}
	if body := d.ok("/v1/streams"); !bytes.Contains(body, []byte(`"streaming": true`)) || !bytes.Contains(body, []byte("caldot1-cam1")) {
		t.Errorf("/v1/streams while streaming = %s", body)
	}
	eventually(t, "two streamed clips", func() bool { return d.clipsServed() >= 2 })

	if code, _ := d.do("POST", "/jobs/"+first.ID()+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	waitState(t, first, JobDone) // a canceled stream reports what it ingested
	res, _ := first.View().Result.(map[string]any)
	clips, _ := res["clips"].(int64)
	if clips < 2 {
		t.Errorf("stream result = %+v, want at least 2 clips", res)
	}
	if body := d.ok("/v1/streams"); !bytes.Contains(body, []byte(`"streaming": false`)) {
		t.Errorf("/v1/streams after the stream = %s", body)
	}
	if view, _ := d.defaultDataset(); !streamed(view) || view.Clips != int(clips) {
		t.Errorf("default dataset after the stream = %+v, want the live store's %d clips", view, clips)
	}
	if body := d.ok("/jobs"); !bytes.Contains(body, []byte(`"kind": "stream"`)) {
		t.Errorf("/jobs does not list the stream job: %s", body)
	}
}

// TestHostileJobParams holds every job parameter that arrives over the
// socket to a bound: each hostile value ends its job failed with an error
// naming the parameter and starts no stream, and a valid stream job runs
// afterwards. The huge queue and cameras values used to panic in make
// inside the job goroutine, which took the daemon down.
func TestHostileJobParams(t *testing.T) {
	d := readyTestDaemon(t, testConfig())
	const huge = "9000000000000000000"
	for _, c := range []struct{ kind, key, value string }{
		{"stream", "queue", huge},
		{"stream", "queue", "-1"},
		{"stream", "queue", "1025"},
		{"stream", "cameras", huge},
		{"stream", "cameras", "0"},
		{"stream", "cameras", "65"},
		{"stream", "clips", "-1"},
		{"stream", "interval", "-5ms"},
		{"stream", "seconds", "NaN"},
		{"stream", "seconds", "+Inf"},
		{"stream", "seconds", "-Inf"},
		{"stream", "seconds", "-1"},
		{"stream", "seconds", "601"},
		{"stream", "drop", "yes"},
		{"stream", "camera", "2"},
		{"extract", "tolerance", "NaN"},
		{"extract", "tolerance", "-0.1"},
		{"extract", "tolerance", "1.5"},
		{"extract", "tolerance", "+Inf"},
		{"extract", "sets", "val"},
		{"extract", "iterations", "3"},
	} {
		v := d.run(c.kind, map[string]string{c.key: c.value}, JobFailed)
		if !strings.Contains(v.Error, c.key) {
			t.Errorf("%s %s=%q: error %q does not name the parameter", c.kind, c.key, c.value, v.Error)
		}
		if body := d.ok("/v1/streams"); !bytes.Contains(body, []byte(`"streaming": false`)) {
			t.Fatalf("%s %s=%q: /v1/streams = %s", c.kind, c.key, c.value, body)
		}
	}
	d.run("stream", map[string]string{"cameras": "1", "clips": "1", "seconds": "1", "drop": "true"}, JobDone)
}

// TestLastPublicationAnswers is the publication rule: whichever source
// published last answers the default dataset. Where the rule differs from
// the priority chain it replaced — an extract finishing while a stream is
// live — the extract wins, and the stream's later clips do not take the
// entry back.
func TestLastPublicationAnswers(t *testing.T) {
	cfg := testConfig()
	cfg.SegmentsDir, _ = writeSegments(t)
	d := readyTestDaemon(t, cfg)
	// Start-up: the segment files are published.
	if view, _ := d.defaultDataset(); streamed(view) || view.Clips != 2 {
		t.Fatalf("at start-up the default dataset is %+v, want the segment files' store", view)
	}
	d.run("extract", map[string]string{"set": "train"}, JobDone)
	extracted := d.count()

	// An unbounded stream of 3-second clips: nothing changes until its
	// first clip lands, then the live store answers.
	stream := d.submit("stream", map[string]string{"cameras": "1", "interval": "10ms", "seconds": "3"})
	eventually(t, "the live store to answer", func() bool {
		view, _ := d.defaultDataset()
		if !streamed(view) && view.Clips != len(extracted.PerClip) {
			t.Fatalf("before the first streamed clip the default dataset is %+v", view)
		}
		return streamed(view)
	})

	// An extract that finishes while the stream is live takes the entry
	// and keeps it.
	d.run("extract", map[string]string{"set": "train"}, JobDone)
	before := d.session.Load().Stats().ClipsIngested
	eventually(t, "two more streamed clips", func() bool { return d.session.Load().Stats().ClipsIngested >= before+2 })
	if view, _ := d.defaultDataset(); streamed(view) {
		t.Fatalf("after an extract beside a live stream the default dataset is %+v, want the extract's store", view)
	}
	if got := d.count(); got.Total != extracted.Total || len(got.PerClip) != len(extracted.PerClip) {
		t.Errorf("count = %+v, want the extract's %+v", got, extracted)
	}

	if code, _ := d.do("POST", "/jobs/"+stream.ID()+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	waitState(t, stream, JobDone) // a canceled stream reports what it ingested
	if view, _ := d.defaultDataset(); streamed(view) {
		t.Errorf("the ended stream took the entry back: %+v", view)
	}
}

// TestStreamJobAndClose starts an unbounded stream the one way there is,
// POST /jobs, and covers Close (running jobs are canceled and waited for).
func TestStreamJobAndClose(t *testing.T) {
	d := readyTestDaemon(t, testConfig())
	if jobs := d.jobs.List(); len(jobs) != 0 {
		t.Fatalf("jobs after Start = %+v, want none", jobs)
	}
	d.submit("stream", map[string]string{"cameras": "2", "interval": "10ms", "queue": "1", "drop": "false"})
	eventually(t, "two streamed clips", func() bool { return d.clipsServed() >= 2 })
	d.submit("extract", nil)

	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return with an unbounded stream running")
	}
	for _, v := range d.jobs.List() {
		if !v.State.Terminal() {
			t.Errorf("job %s is %q after Close", v.ID, v.State)
		}
	}
	if _, err := d.jobs.Submit("extract", nil); err == nil {
		t.Error("Submit after Close succeeded")
	}
	// What was published is still served.
	if got := d.count(); len(got.PerClip) < 2 {
		t.Errorf("count after Close = %+v", got)
	}
}

// TestRun is otifd minus flag parsing: Run serves on the listener, exits
// cleanly when its context ends, and reports a start-up source that does
// not load.
func TestRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Run(ctx, ln, testConfig()) }()
	url := "http://" + ln.Addr().String()
	eventually(t, "/readyz", func() bool {
		resp, err := http.Get(url + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Run = %v after cancel, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("the listener still answers after Run returned")
	}

	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := testConfig()
	cfg.Dataset = "no-such-dataset"
	if err := Run(context.Background(), ln, cfg); err == nil {
		t.Error("Run with an unknown dataset returned nil")
	}
}
