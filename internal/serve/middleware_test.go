package serve

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"otif"
	"otif/internal/obs"
	"otif/internal/store"
)

func TestRouteKey(t *testing.T) {
	cases := map[string]string{
		"GET /v1/query/count":   "v1_query_count",
		"POST /v1/query/dwell":  "v1_query_dwell",
		"GET /metrics":          "metrics",
		"GET /jobs/{id}/events": "jobs_id_events",
		"/debug/pprof/":         "debug_pprof",
		"GET /v1/debug/slow":    "v1_debug_slow",
		"GET /":                 "root",
	}
	for pattern, want := range cases {
		if got := routeKey(pattern); got != want {
			t.Errorf("routeKey(%q) = %q, want %q", pattern, got, want)
		}
	}
}

// TestRouteTelemetry asserts the per-route metric contract: every route
// carries a request counter, a latency histogram, an in-flight gauge and
// status-class counters, all under serve.route.<key>.*.
func TestRouteTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	s := &Server{
		Registry: reg,
		Ready:    func() bool { return false }, // /readyz answers 503
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d, want 503", resp.StatusCode)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["serve.route.healthz.requests"]; got != 3 {
		t.Errorf("healthz requests = %d, want 3", got)
	}
	if got := snap.Counters["serve.route.healthz.status_2xx"]; got != 3 {
		t.Errorf("healthz 2xx = %d, want 3", got)
	}
	if got := snap.Counters["serve.route.readyz.status_5xx"]; got != 1 {
		t.Errorf("readyz 5xx = %d, want 1", got)
	}
	h, ok := snap.Histograms["serve.route.healthz.seconds"]
	if !ok || h.Count != 3 {
		t.Errorf("healthz latency histogram = %+v, want count 3", h)
	}
	if got := snap.Gauges["serve.route.healthz.inflight"]; got != 0 {
		t.Errorf("healthz inflight after quiescence = %v, want 0", got)
	}
}

func TestStatusWriterDefaultsTo200(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	io.WriteString(sw, "ok")
	if sw.status != http.StatusOK {
		t.Errorf("implicit status = %d, want 200", sw.status)
	}
	rec = httptest.NewRecorder()
	sw = &statusWriter{ResponseWriter: rec}
	sw.WriteHeader(http.StatusTeapot)
	sw.WriteHeader(http.StatusOK) // superfluous second call must not win
	if sw.status != http.StatusTeapot {
		t.Errorf("explicit status = %d, want 418", sw.status)
	}
}

// TestSlowLog pins the slow-request log contract: it retains only the K
// slowest entries, slowest first, and materializes the span subtree only
// for qualifying entries.
func TestSlowLog(t *testing.T) {
	l := &slowLog{max: 3}
	captures := 0
	spans := func() []obs.SpanRecord {
		captures++
		return []obs.SpanRecord{{Name: "http.v1_query_count"}}
	}
	for _, sec := range []float64{0.5, 0.1, 0.9, 0.2, 0.05, 0.7} {
		l.offer(slowRequest{Route: "v1_query_count", Seconds: sec}, spans)
	}
	got := l.snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d entries, want 3", len(got))
	}
	want := []float64{0.9, 0.7, 0.5}
	for i, e := range got {
		if e.Seconds != want[i] {
			t.Errorf("entry %d = %vs, want %vs", i, e.Seconds, want[i])
		}
		if len(e.Spans) != 1 {
			t.Errorf("entry %d has %d spans, want 1", i, len(e.Spans))
		}
	}
	// 0.2 and 0.05 never qualified once the log held {0.9, 0.5, 0.1+}:
	// 0.5, 0.1, 0.9, 0.2 (0.1 still slowest-k at that point), 0.7 → 5
	// captures; only 0.05 was rejected without materializing spans.
	if captures != 5 {
		t.Errorf("span subtrees materialized %d times, want 5", captures)
	}
}

// TestSlowEndpoint drives a /query route (answering 503 with no store
// loaded) and asserts it appears in GET /v1/debug/slow with its parameters.
func TestSlowEndpoint(t *testing.T) {
	datasets := store.NewRegistry()
	datasets.Register("live", &otif.TrackSet{})
	s := &Server{
		Registry: obs.NewRegistry(),
		Queries:  &QueryAPI{Datasets: datasets},
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/query/count?category=car")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1/query/count without store = %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		K        int           `json:"k"`
		Requests []slowRequest `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.K != slowRequests {
		t.Errorf("k = %d, want %d", out.K, slowRequests)
	}
	if len(out.Requests) != 1 {
		t.Fatalf("slow log has %d entries, want 1: %+v", len(out.Requests), out.Requests)
	}
	e := out.Requests[0]
	if e.Route != "v1_query_count" || e.Status != 503 || e.Query != "category=car" {
		t.Errorf("slow entry = %+v", e)
	}
}

// chromeTrace is the one shape the flight recorder is served in, by
// /v1/debug/trace and as the bundle's trace.chrome.json.
type chromeTrace struct {
	TraceEvents []json.RawMessage `json:"traceEvents"`
	OtherData   obs.RecorderStats `json:"otherData"`
}

func decodeTrace(b []byte) (chromeTrace, error) {
	var tr chromeTrace
	if err := json.Unmarshal(b, &tr); err != nil {
		return tr, err
	}
	if tr.TraceEvents == nil {
		return tr, fmt.Errorf("no traceEvents list in %.200s", b)
	}
	return tr, nil
}

// TestTraceEndpoint covers the two /v1/debug/trace answers: 404 with
// tracing disabled, else the recorder's Chrome trace with its ring stats
// under otherData, whatever the query string says.
func TestTraceEndpoint(t *testing.T) {
	s := &Server{Registry: obs.NewRegistry()}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	obs.SetRecorder(nil)
	resp, err := http.Get(srv.URL + "/v1/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/debug/trace with tracing disabled = %d, want 404", resp.StatusCode)
	}

	obs.EnableTracing(64)
	defer obs.SetRecorder(nil)
	for _, path := range []string{"/v1/debug/trace", "/v1/debug/trace?format=spans"} {
		resp, err = http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := decodeTrace(body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %v", path, resp.StatusCode, err)
		}
		if tr.OtherData.Capacity != 64 {
			t.Errorf("%s: otherData = %+v", path, tr.OtherData)
		}
	}
}

// TestBundleMembers downloads /v1/debug/bundle and asserts the expected
// archive member set.
func TestBundleMembers(t *testing.T) {
	obs.EnableTracing(8)
	defer obs.SetRecorder(nil)
	s := &Server{
		Registry: obs.NewRegistry(),
		Config: func() map[string]string {
			return map[string]string{"dataset": "caldot1"}
		},
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Errorf("Content-Type = %q", ct)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	members := map[string][]byte{}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		members[hdr.Name] = data
	}
	for _, want := range []string{
		"metrics.json", "metrics.prom", "trace.chrome.json",
		"slow.json", "goroutines.txt", "heap.pprof", "buildinfo.txt", "config.json",
	} {
		if _, ok := members[want]; !ok {
			t.Errorf("bundle missing member %q (have %d members)", want, len(members))
		}
	}
	for _, gone := range []string{"streams.json", "trace.json"} {
		if _, ok := members[gone]; ok {
			t.Errorf("bundle has %s", gone)
		}
	}
	if tr, err := decodeTrace(members["trace.chrome.json"]); err != nil || tr.OtherData.Capacity != 8 {
		t.Errorf("trace.chrome.json = %+v, %v", tr, err)
	}
	var cfg map[string]string
	if err := json.Unmarshal(members["config.json"], &cfg); err != nil {
		t.Fatalf("config.json: %v", err)
	}
	if cfg["dataset"] != "caldot1" {
		t.Errorf("config.json = %v", cfg)
	}
	if !strings.Contains(string(members["goroutines.txt"]), "goroutine") {
		t.Error("goroutines.txt does not look like a goroutine dump")
	}
	var snap obs.MetricsSnapshot
	if err := json.Unmarshal(members["metrics.json"], &snap); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
}
