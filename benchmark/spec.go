package main

import (
	"fmt"
	"regexp"
)

// This file is the benchmark's contract: the workloads, every metric by
// name with unit, direction and regression bound, and the validator that
// keeps BENCHMARK.json (generated from these tables by -spec) inside the
// driver's limits.

// runSeconds is how long one run measures by default; BENCHMARK.json
// carries the same number for the driver.
const runSeconds = 15

// metricSpec names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func e2e(name, unit, better string, bound float64) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better, Bound: &bound}
}

// endToEnd lists the end-to-end metrics. The driver requires every one of
// them, non-zero, from every workload, so they are named by role and each
// workload fills the role with its own user-visible quantity (README.md
// has the table):
//
//	throughput  video-s/s extracted cold (extract-*), video-s/s extracted
//	            warm (tune-warm), query calls/s over a round (query-mix),
//	            requests answered per second of the open loop (serve-live)
//	quality     accuracy vs simulator truth (extract-*), simulated speed
//	            of the Table 2 pick (tune-warm), detections per segment
//	            KiB (query-mix), share of open-loop requests answered
//	            within 10 ms of their due time (serve-live)
//	op_p50_ms   RunSet slice (extract-*), tuner.Tune (tune-warm), track
//	            pass (query-mix), HTTP request from due time (serve-live)
//	op2_p50_ms  single-clip RunSet (extract-*), warm RunSet of the pick
//	            (tune-warm), frame pass (query-mix), clip due time to
//	            queryable (serve-live)
//
// Every timing and rate is reported as divided by the machine factor of
// the stretch it was measured in (calib.go), except the throughput and the
// quality of serve-live, which the offered load fixes.
//
// The timings' tails are in every run's report but carry no bound: on the
// shared two-core box a neighbour takes a core for about a second at a
// time, and a p75 to p95 over a 15 s run then lands inside or outside such
// a burst, a factor of 1.5 apart. For the same reason every timing bound
// is the widest the driver allows. quality is exact for a seed; its bound
// covers the spread of extract-dense's accuracy from seed to seed (5 to
// 11% over ten seeds).
var endToEnd = []metricSpec{
	e2e("setup_s", "s", "lower", 0.25),
	e2e("throughput", "1/s", "higher", 0.25),
	e2e("quality", "ratio", "higher", 0.20),
	e2e("op_p50_ms", "ms", "lower", 0.25),
	e2e("op2_p50_ms", "ms", "lower", 0.25),
	e2e("peak_rss_mb", "MB", "lower", 0.25),
}

// queryKinds are the store query kinds measured one by one in the traced
// query-mix run.
var queryKinds = []string{"count", "breakdown", "limit", "avgvisible", "busy", "cooc", "dwell", "braking", "speeding", "visibleboxes"}

// httpRoutes and httpDatasets span the serve.<route>_<dataset>_p50_ms
// metrics of the traced serve-live run.
var (
	httpRoutes   = []string{"count", "breakdown", "dwell", "limit"}
	httpDatasets = []string{"archive", "live"}
)

// perLayer lists the per-layer metrics, collected by the traced run. A
// metric of a layer a workload does not exercise reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) {
		out = append(out, metricSpec{Name: name, Unit: unit, Better: better})
	}
	add("calib.spin_ms", "ms", "lower")
	add("calib.stream_ms", "ms", "lower")

	add("vidsim.render_busy_s", "s", "lower")
	add("vidsim.frames_rendered", "count", "lower")

	add("video.next_wait_s", "s", "lower")
	add("video.frames_read", "count", "lower")
	add("video.cache_hit_rate", "ratio", "higher")
	add("video.cache_evictions", "count", "lower")
	add("video.downsample_ns_per_px", "ns", "lower")

	add("proxy.score_busy_s", "s", "lower")
	add("proxy.group_busy_s", "s", "lower")
	add("proxy.frames_scored", "count", "lower")
	add("proxy.windows_per_frame", "count", "lower")
	add("proxy.window_px_share", "ratio", "lower")
	add("proxy.frames_skipped_share", "ratio", "higher")

	add("detect.busy_s", "s", "lower")
	add("detect.calls", "count", "lower")
	add("detect.px_processed", "count", "lower")
	add("detect.ns_per_px", "ns", "lower")
	add("detect.dets_per_frame", "count", "higher")

	add("track.update_busy_s", "s", "lower")
	add("track.updates", "count", "lower")
	add("track.finish_busy_s", "s", "lower")
	add("track.hungarian32_ns", "ns", "lower")

	add("refine.busy_s", "s", "lower")
	add("refine.tracks", "count", "higher")
	add("refine.extended_share", "ratio", "higher")

	add("core.w1_video_s_per_s", "1/s", "higher")
	add("core.parallel_speedup", "ratio", "higher")
	add("core.replay_overhead_ratio", "ratio", "lower")
	for _, op := range []string{"decode", "proxy", "detect", "track"} {
		add("costmodel.drift_"+op, "ratio", "lower")
	}

	add("tuner.iterations", "count", "lower")
	add("tuner.configs_evaluated", "count", "lower")
	add("tuner.curve_points", "count", "higher")

	for _, m := range []string{"write_tracks", "read_tracks", "write_segment", "read_segment"} {
		add("persist."+m+"_mb_s", "MB/s", "higher")
	}

	add("store.open_ms", "ms", "lower")
	add("store.index_build_ms", "ms", "lower")
	add("store.heap_mb", "MB", "lower")
	for _, k := range queryKinds {
		add("store."+k+"_p50_us", "us", "lower")
		add("store."+k+"_allocs", "count", "lower")
	}
	add("store.limit_bytes_per_call", "B", "lower")
	add("store.cache_hit_us", "us", "lower")
	add("store.cache_hit_rate", "ratio", "higher")
	add("store.cache_entries", "count", "lower")
	add("store.candidates_kept_share", "ratio", "higher")
	add("store.live_append_us_at1", "us", "lower")
	add("store.live_append_us_at200", "us", "lower")

	add("ingest.queue_wait_p50_ms", "ms", "lower")
	add("ingest.service_p50_ms", "ms", "lower")
	add("ingest.clips_published", "count", "higher")
	add("ingest.clips_dropped", "count", "lower")
	add("ingest.emit_late_p95_ms", "ms", "lower")

	for _, rt := range httpRoutes {
		for _, ds := range httpDatasets {
			add("serve."+rt+"_"+ds+"_p50_ms", "ms", "lower")
		}
	}
	add("serve.closed_rps", "1/s", "higher")
	add("serve.overhead_p50_us", "us", "lower")
	add("serve.sched_late_p95_ms", "ms", "lower")
	add("serve.resp_kb_p50", "KB", "lower")
	return out
}

// workload pairs a workload's contract entry with the function that runs
// it.
type workload struct {
	workloadSpec
	run func(*runCtx) error
}

var workloads = []workload{
	{workloadSpec{"extract-dense", "Busy junction, every frame at full detector resolution, clips never seen twice: render, downsample and detect do the work; proxy and nn do none."}, runExtractDense},
	{workloadSpec{"extract-tuned", "Sparse highway at the paper's operating point, cold cache: proxy windows, gap skipping, recurrent tracker and refinement; detect is a few percent."}, runExtractTuned},
	{workloadSpec{"tune-warm", "Repeated tuner.Tune over one validation set that fits the 64 MiB frame cache: the only workload where the cache and the prefetcher serve repeated reads."}, runTuneWarm},
	{workloadSpec{"query-mix", "Paper-scale store of simulator ground-truth tracks: distinct-parameter track passes and frame passes through the segment scatter, then cache-warm passes."}, runQueryMix},
	{workloadSpec{"serve-live", "HTTP queries on loopback against an archive and a live dataset while one open-loop camera is ingested on the same cores: reads beside writes."}, runServeLive},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// spec renders the tables above as the BENCHMARK.json document.
func spec() benchmarkFile {
	b := benchmarkFile{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, w.workloadSpec)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks a benchmark document against the driver's limits.
func (b benchmarkFile) validate() error {
	if n := len(b.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1 to 60", b.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range b.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	metric := func(m metricSpec, bounded bool) error {
		if err := name("metric", m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %q: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
		if bounded != (m.Bound != nil) {
			return fmt.Errorf("metric %q: bound present=%v, want %v", m.Name, m.Bound != nil, bounded)
		}
		if bounded && (*m.Bound < 0 || *m.Bound > 0.25) {
			return fmt.Errorf("metric %q: bound %v outside [0, 0.25]", m.Name, *m.Bound)
		}
		return nil
	}
	setup := false
	for _, m := range b.EndToEnd {
		if err := metric(m, true); err != nil {
			return err
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end-to-end metrics need setup_s with unit s, lower is better")
	}
	for _, m := range b.PerLayer {
		if err := metric(m, false); err != nil {
			return err
		}
	}
	return nil
}
