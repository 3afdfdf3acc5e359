package serve

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"otif/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// promNameRE is the Prometheus metric-name grammar.
var promNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// seededRegistry builds a registry with one metric of every kind and
// fixed values, mirroring the pipeline's naming scheme.
func seededRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("run.clips").Add(12)
	r.Counter("run.frames").Add(3456)
	r.Counter("detect.invocations").Add(789)
	r.Cost("cost.decode").Add(1.5)
	r.Cost("cost.detect").Add(0.0625) // exact in binary: survives format round-trips
	r.Gauge("cache.hit_rate").Set(0.75)
	r.Gauge("cache.bytes").Set(1 << 20)
	h := r.Histogram("run.tracks_per_clip", 1, 2, 5)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(1.7)
	h.Observe(4)
	h.Observe(100)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, seededRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition output diverged from %s.\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// Rendering the same snapshot twice must be byte-identical (map
// iteration order must never leak into the output).
func TestWritePrometheusDeterministic(t *testing.T) {
	snap := seededRegistry().Snapshot()
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of one snapshot differ")
	}
}

// Every series name in the output must be a valid Prometheus identifier
// and every histogram must close with le="+Inf".
func TestWritePrometheusNamesValid(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, seededRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	sawInf := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !promNameRE.MatchString(name) {
			t.Errorf("invalid series name %q in line %q", name, line)
		}
		if strings.Contains(line, `le="+Inf"`) {
			sawInf = true
		}
	}
	if !sawInf {
		t.Error("histogram exposition lacks the mandatory le=\"+Inf\" bucket")
	}
	for _, want := range []string{
		"otif_run_clips_total 12",
		"otif_cost_decode_seconds_total 1.5",
		"otif_cache_hit_rate 0.75",
		"otif_run_tracks_per_clip_count 5",
		`otif_run_tracks_per_clip_bucket{le="2"} 3`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestMetricsExportsIndexHitRatio: the store's computed gauge, a one-entry
// gauge group, is a series of /metrics.
func TestMetricsExportsIndexHitRatio(t *testing.T) {
	rec := httptest.NewRecorder()
	(&Server{}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); !strings.Contains(body, "# TYPE otif_store_index_hit_ratio gauge\n") {
		t.Errorf("/metrics has no store.index_hit_ratio gauge:\n%s", body)
	}
}

// TestMetricsExportsReaderCounters: the decode-ahead counters, the frame
// cache's fill counters and the simulator's render count are series of
// /metrics.
func TestMetricsExportsReaderCounters(t *testing.T) {
	rec := httptest.NewRecorder()
	(&Server{}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, name := range []string{
		"video_prefetch_producers", "video_prefetch_served", "video_prefetch_fallback",
		"video_fills_clip_frames", "video_fill_bytes_clip_frames",
		"video_fills_downsamples", "video_fill_bytes_downsamples",
		"video_fills_scores", "video_fill_bytes_scores",
		"video_fills_detections", "video_fill_bytes_detections",
		"vidsim_renders",
	} {
		if !strings.Contains(body, "# TYPE otif_"+name+"_total counter\n") {
			t.Errorf("/metrics has no %s counter", name)
		}
	}
}
