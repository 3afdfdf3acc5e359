package serve

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"otif"
	"otif/internal/obs"
)

// TestDebugEndpointsDuringStreamingIngest hammers /v1/debug/trace,
// /v1/debug/bundle and /v1/query/count from several goroutines while
// the daemon's two-camera stream job records spans into the flight
// recorder. Run under -race this proves the recorder's ring, the
// per-route telemetry, the slow-request log and the bundle collectors
// share no unsynchronized state with the pipeline. Afterwards it asserts
// the observability surface end to end: ingest spans carry camera
// attributes, the slow log holds query requests with span subtrees, and
// /metrics exports the trace.* and serve.route.* series.
func TestDebugEndpointsDuringStreamingIngest(t *testing.T) {
	rec := otif.EnableTracing()
	defer obs.SetRecorder(nil)

	cfg := testConfig()
	cfg.Flags = func() map[string]string { return map[string]string{"dataset": "caldot1"} }
	d := readyTestDaemon(t, cfg)
	get := d.get
	job := d.submit("stream", map[string]string{"cameras": "2", "clips": "3", "queue": "1"})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code, body := get("/v1/debug/trace"); code == http.StatusOK {
					if _, err := decodeTrace(body); err != nil {
						t.Errorf("trace: %v", err)
						return
					}
				} else {
					t.Errorf("/v1/debug/trace = %d", code)
					return
				}
				if code, body := get("/v1/debug/bundle"); code == http.StatusOK {
					gz, err := gzip.NewReader(strings.NewReader(string(body)))
					if err != nil {
						t.Errorf("bundle gzip: %v", err)
						return
					}
					tr := tar.NewReader(gz)
					n := 0
					for {
						if _, err := tr.Next(); err == io.EOF {
							break
						} else if err != nil {
							t.Errorf("bundle tar: %v", err)
							return
						}
						n++
						if _, err := io.Copy(io.Discard, tr); err != nil {
							t.Errorf("bundle member: %v", err)
							return
						}
					}
					if n < 9 {
						t.Errorf("bundle has %d members, want >= 9", n)
						return
					}
				} else {
					t.Errorf("/v1/debug/bundle = %d", code)
					return
				}
				get("/v1/query/count?category=car") // 503 until the first clip publishes
			}
		}()
	}

	waitState(t, job, JobDone)
	get("/v1/query/count?category=car") // the slow log holds at least this one
	close(stop)
	wg.Wait()

	// The recorder saw the ingest spans with their camera attributes.
	cams := map[string]bool{}
	for _, s := range rec.Snapshot() {
		if s.Name == "ingest.clip" {
			if s.Stage != "ingest" || s.Camera == "" || s.Clip < 0 {
				t.Errorf("ingest span missing attributes: %+v", s)
			}
			cams[s.Camera] = true
		}
	}
	if len(cams) != 2 {
		t.Errorf("ingest spans cover cameras %v, want 2 cameras", cams)
	}

	// The slow log retained query requests, each with its span subtree
	// rooted at the request's http span.
	code, body := get("/v1/debug/slow")
	if code != http.StatusOK {
		t.Fatalf("/v1/debug/slow = %d", code)
	}
	var slow struct {
		K        int `json:"k"`
		Requests []struct {
			Route string           `json:"route"`
			Path  string           `json:"path"`
			Spans []obs.SpanRecord `json:"spans"`
		} `json:"requests"`
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow.Requests) == 0 {
		t.Fatal("slow log empty after hammering /v1/query/count")
	}
	for _, e := range slow.Requests {
		if e.Route != "v1_query_count" {
			t.Errorf("slow entry route = %q", e.Route)
		}
		if len(e.Spans) == 0 || e.Spans[0].Name != "http.v1_query_count" || e.Spans[0].Stage != "serve" {
			t.Errorf("slow entry spans = %+v, want http.v1_query_count root", e.Spans)
		}
	}

	// /metrics exports the ring-occupancy gauges and per-route series.
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, series := range []string{
		"otif_trace_capacity",
		"otif_trace_spans_recorded",
		"otif_serve_route_v1_query_count_requests_total",
		"otif_serve_route_v1_debug_trace_requests_total",
		"otif_serve_route_v1_debug_bundle_status_2xx_total",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics missing series %s", series)
		}
	}
}
