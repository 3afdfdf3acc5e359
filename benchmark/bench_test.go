package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"otif/internal/dataset"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5}} {
		if got := percentile(s, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond it,
// between the upper quartile and p95.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 75}, {8, 75}, {39, 75}, {40, 75}, {50, 80}, {100, 90}, {120, 100 * 110.0 / 120}, {200, 95}, {5000, 95}} {
		got := tailPercentile(tc.n)
		if !near(got, tc.want) {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if beyond := float64(tc.n) * (100 - got) / 100; tc.n >= 40 && beyond < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves %.1f samples beyond it", tc.n, got, beyond)
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i)
	}
	d := summarize(samples)
	if d.N != 100 || !near(d.P50, 49.5) || !near(d.Q1, 24.75) || !near(d.Q3, 74.25) || d.TailPct != 90 || !near(d.Tail, 89.1) {
		t.Errorf("summarize = %+v", d)
	}
}

// quartilesExclusive must agree with Python's statistics.quantiles(v, n=4),
// which the driver uses; the expected values were computed with it.
func TestQuartilesExclusive(t *testing.T) {
	v := []float64{12, 3, 7, 9, 21, 4, 15, 8, 10, 6}
	q1, q2, q3 := quartilesExclusive(v)
	if !near(q1, 5.5) || !near(q2, 8.5) || !near(q3, 12.75) {
		t.Errorf("quartiles = %v %v %v, want 5.5 8.5 12.75", q1, q2, q3)
	}
	if got := spread(v); !near(got, (12.75-5.5)/8.5) {
		t.Errorf("spread = %v", got)
	}
	q1, q2, q3 = quartilesExclusive([]float64{2, 1, 3})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 3) {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want := spec()
	if err := want.validate(); err != nil {
		t.Fatalf("spec.go does not meet the contract: %v", err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var got benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with: go run -C benchmark . -spec > BENCHMARK.json")
	}
}

func TestValidateRejects(t *testing.T) {
	bound := 0.1
	over := 0.3
	metric := func(name string) metricSpec { return metricSpec{Name: name, Unit: "ms", Better: "lower"} }
	bounded := func(name string, b *float64) metricSpec {
		m := metric(name)
		m.Bound = b
		return m
	}
	setup := metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: &bound}
	good := func() benchmarkFile {
		return benchmarkFile{
			RunSeconds: 10,
			Workloads:  []workloadSpec{{"a", "why a"}, {"b", "why b"}},
			EndToEnd:   []metricSpec{setup, bounded("latency_ms", &bound)},
			PerLayer:   []metricSpec{metric("layer.busy_s")},
		}
	}
	if err := good().validate(); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	many := func(n int, mk func(string) metricSpec) []metricSpec {
		out := make([]metricSpec, n)
		for i := range out {
			out[i] = mk("m" + strings.Repeat("x", i%50) + string(rune('a'+i%26)) + strings.Repeat("y", i/26))
		}
		return out
	}
	for name, mutate := range map[string]func(*benchmarkFile){
		"one workload":       func(b *benchmarkFile) { b.Workloads = b.Workloads[:1] },
		"nine workloads":     func(b *benchmarkFile) { b.Workloads = make([]workloadSpec, 9) },
		"bad workload name":  func(b *benchmarkFile) { b.Workloads[0].Name = "has space" },
		"name starts with .": func(b *benchmarkFile) { b.PerLayer[0].Name = ".busy" },
		"name of 65":         func(b *benchmarkFile) { b.PerLayer[0].Name = strings.Repeat("a", 65) },
		"duplicate name":     func(b *benchmarkFile) { b.PerLayer[0].Name = "latency_ms" },
		"why too long":       func(b *benchmarkFile) { b.Workloads[0].Why = strings.Repeat("w", 201) },
		"bad unit":           func(b *benchmarkFile) { b.PerLayer[0].Unit = "micro seconds" },
		"bad direction":      func(b *benchmarkFile) { b.PerLayer[0].Better = "faster" },
		"bound over 0.25":    func(b *benchmarkFile) { b.EndToEnd[1].Bound = &over },
		"e2e without bound":  func(b *benchmarkFile) { b.EndToEnd[1].Bound = nil },
		"per-layer bounded":  func(b *benchmarkFile) { b.PerLayer[0].Bound = &bound },
		"no setup_s":         func(b *benchmarkFile) { b.EndToEnd = b.EndToEnd[1:] },
		"setup_s higher":     func(b *benchmarkFile) { b.EndToEnd[0].Better = "higher" },
		"17 end-to-end": func(b *benchmarkFile) {
			b.EndToEnd = append(many(16, func(n string) metricSpec { return bounded(n, &bound) }), setup)
		},
		"129 per-layer":       func(b *benchmarkFile) { b.PerLayer = many(129, metric) },
		"no per-layer":        func(b *benchmarkFile) { b.PerLayer = nil },
		"run_seconds 0":       func(b *benchmarkFile) { b.RunSeconds = 0 },
		"run_seconds over 60": func(b *benchmarkFile) { b.RunSeconds = 61 },
	} {
		b := good()
		mutate(&b)
		if err := b.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// tinySizes shrinks every input so that all five workloads, untraced and
// traced, run in a few seconds.
var tinySizes = sizes{
	caldotSpec: dataset.SetSpec{Clips: 2, ClipSeconds: 2},
	tokyoSpec:  dataset.SetSpec{Clips: 2, ClipSeconds: 2},
	tuneSpec:   dataset.SetSpec{Clips: 2, ClipSeconds: 3},
	setupReps:  1,

	denseClipSec: 1, tunedClipSec: 2,
	denseSlice: 2, tunedSlice: 3,

	archiveClips: 4, archiveClipSec: 10, clipsPerSeg: 2,
	serveClips: 2,
	lookups:    2000,

	liveClipSec: 2, liveInterval: 100 * time.Millisecond,
	clientRate: 50,
}

// TestSmoke keeps the benchmark compiling against the product and its
// output checks alive: every workload must run, untraced and traced, with
// no failed operation, every metric of the contract present, the
// end-to-end ones non-zero, and a loadable trace.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	traces := map[string]*report{}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			t0 := time.Now()
			rep, err := runWorkload(w, 3, 0.5, traced, tinySizes, out)
			t.Logf("%s traced=%v: %.1f s", w.Name, traced, time.Since(t0).Seconds())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if rep.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, rep.Failed, rep.Attempted, rep.Failures)
			}
			line := rep.line()
			if !traced {
				for _, m := range endToEnd {
					if v := line.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v)
					}
				}
				continue
			}
			traces[w.Name] = rep
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("%s: traced result line has %d metrics, want %d", w.Name, len(line.Metrics), len(perLayer))
			}
			raw, err := os.ReadFile(rep.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("%s: trace does not parse: %v", w.Name, err)
			}
			spans := 0
			for _, e := range doc.TraceEvents {
				if e.Ph == "X" {
					spans++
				}
			}
			if spans == 0 || spans != rep.Spans {
				t.Errorf("%s: trace holds %d spans, report says %d", w.Name, spans, rep.Spans)
			}
		}
	}

	// A workload's layers show up where its "why" says, and only there.
	dense, tuned := traces["extract-dense"], traces["extract-tuned"]
	for _, name := range []string{"proxy.score_busy_s", "proxy.frames_scored", "refine.tracks"} {
		if v := dense.Metrics[name]; v != 0 {
			t.Errorf("extract-dense: %s = %v, want 0", name, v)
		}
		if v := tuned.Metrics[name]; !(v > 0) {
			t.Errorf("extract-tuned: %s = %v, want > 0", name, v)
		}
	}
	for _, rep := range []*report{dense, tuned} {
		for _, name := range []string{"vidsim.render_busy_s", "detect.busy_s", "track.updates", "core.w1_video_s_per_s", "core.replay_overhead_ratio"} {
			if v := rep.Metrics[name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", rep.Workload, name, v)
			}
		}
	}
}
