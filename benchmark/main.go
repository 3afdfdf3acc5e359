// Command benchmark is the benchmark of this repository: five workloads
// over the whole system (extraction cold and tuned, tuning warm, the query
// store, and HTTP serving beside live ingest), each reporting the
// end-to-end metrics of spec.go, checking its outputs, and, in a separate
// traced run, the per-layer ledger and a Perfetto-loadable trace. See
// README.md.
//
//	go run -C benchmark . --workload query-mix --seed 1 --seconds 15 --trace 0
//	go run -C benchmark . -repeat 3        # whole suite, three times
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"otif/internal/dataset"
)

// sizes holds every input size of the workloads, so the smoke test can run
// the same code at a tiny scale.
type sizes struct {
	caldotSpec dataset.SetSpec // training set of extract-tuned's pipeline
	tokyoSpec  dataset.SetSpec // training set of extract-dense's and serve-live's
	tuneSpec   dataset.SetSpec // train/validation sets of tune-warm: must fit the frame cache
	setupReps  int             // set-ups per run; setup_s is their median

	denseClipSec, tunedClipSec float64
	denseSlice, tunedSlice     int // clips per RunSet slice

	archiveClips   int // query-mix store
	archiveClipSec float64
	clipsPerSeg    int
	serveClips     int // serve-live's archive: a prefix of the same data
	lookups        int // VisibleBoxes point lookups in the traced run

	liveClipSec  float64
	liveInterval time.Duration // camera period, open loop
	clientRate   float64       // requests/s per connection, phase A
}

var fullSizes = sizes{
	caldotSpec: dataset.DefaultSpec,
	tokyoSpec:  dataset.SetSpec{Clips: 4, ClipSeconds: 6},
	tuneSpec:   dataset.SetSpec{Clips: 8, ClipSeconds: 4},
	setupReps:  3,

	denseClipSec: 10, tunedClipSec: 30,
	denseSlice: 4, tunedSlice: 10,

	archiveClips: 64, archiveClipSec: 60, clipsPerSeg: 8,
	serveClips: 16,
	lookups:    100000,

	liveClipSec: 10, liveInterval: 100 * time.Millisecond,
	clientRate: 50,
}

// report is what one run of one workload produces; it is written whole to
// the output directory and its Metrics become the result line.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Machine   machine            `json:"machine"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Dists     map[string]dist    `json:"distributions,omitempty"`
	Factor    *dist              `json:"machine_factor,omitempty"` // see calib.go
	TraceFile string             `json:"trace_file,omitempty"`
	Spans     int                `json:"spans,omitempty"`
}

// runCtx is one run's inputs and its growing report.
type runCtx struct {
	seed    int64
	seconds float64
	traced  bool
	sz      sizes
	tmpDir  string // scratch for segment files; removed by the caller
	tr      *tracer
	g       gauge
	rep     *report
}

// op counts one operation; a false ok counts it failed and keeps the first
// few explanations.
func (c *runCtx) op(ok bool, format string, args ...any) {
	c.rep.Attempted++
	if !ok {
		c.fail(format, args...)
	}
}

// fail marks an already counted operation failed.
func (c *runCtx) fail(format string, args ...any) {
	c.rep.Failed++
	if len(c.rep.Failures) < 20 {
		c.rep.Failures = append(c.rep.Failures, fmt.Sprintf(format, args...))
	}
}

// ops counts n successful operations.
func (c *runCtx) ops(n int) { c.rep.Attempted += n }

func (c *runCtx) set(name string, v float64) { c.rep.Metrics[name] = v }

// setDist reports a timing's median and keeps its distribution, tail
// included, for the run's report.
func (c *runCtx) setDist(prefix string, samplesMS []float64) {
	d := summarize(samplesMS)
	c.rep.Dists[prefix] = d
	c.set(prefix+"_p50_ms", d.P50)
}

// phase is the share of the run's measuring time a phase gets. The traced
// run does the same phases at a quarter of the length.
func (c *runCtx) phase(share float64) time.Duration {
	s := c.seconds * share
	if c.traced {
		s /= 4
	}
	return time.Duration(s * float64(time.Second))
}

// runWorkload runs one workload and returns its report. The names of the
// metrics it must have filled come from spec.go: a missing one is an
// error, so the result line always carries the whole contract.
func runWorkload(w *workload, seed int64, seconds float64, traced bool, sz sizes, outDir string) (*report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	c := &runCtx{
		seed: seed, seconds: seconds, traced: traced, sz: sz, tmpDir: tmp,
		rep: &report{
			Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced,
			Machine: fingerprint(),
			Metrics: map[string]float64{}, Dists: map[string]dist{},
		},
	}
	if traced {
		c.tr = newTracer(1 << 18)
		// Every per-layer metric is present in every traced run; the
		// layers a workload does not reach stay 0.
		for _, m := range perLayer {
			c.rep.Metrics[m.Name] = 0
		}
		c.set("calib.spin_ms", c.rep.Machine.SpinMS)
		c.set("calib.stream_ms", c.rep.Machine.StreamMS)
	}
	if err := w.run(c); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if !traced {
		c.set("peak_rss_mb", peakRSSMB())
	}
	if len(c.g.factors) > 0 {
		d := summarize(c.g.factors)
		c.rep.Factor = &d
	}
	for _, m := range metricsFor(traced) {
		if _, ok := c.rep.Metrics[m.Name]; !ok {
			return nil, fmt.Errorf("%s: metric %s not reported", w.Name, m.Name)
		}
	}
	if c.rep.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", w.Name)
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", w.Name, seed, b2i(traced))
	if traced {
		c.rep.TraceFile = filepath.Join(outDir, base+".trace.json")
		c.rep.Spans = c.tr.len()
		if err := writeFile(c.rep.TraceFile, func(f *os.File) error {
			return c.tr.writeChrome(f, map[string]any{"workload": w.Name, "seed": seed, "machine": c.rep.Machine})
		}); err != nil {
			return nil, err
		}
	}
	return c.rep, writeJSONFile(filepath.Join(outDir, base+".json"), c.rep)
}

// metricsFor is the metric list a run reports: per-layer when traced,
// end-to-end otherwise.
func metricsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeJSONFile(path string, v any) error {
	return writeFile(path, func(f *os.File) error { return writeJSON(f, v) })
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// resultLine is the driver-facing result: the last line of standard
// output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) line() resultLine {
	out := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range metricsFor(r.Traced) {
		out.Metrics[m.Name] = metricValue{Value: r.Metrics[m.Name], Unit: m.Unit}
	}
	return out
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process and print its result line; empty runs the whole suite")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", runSeconds, "seconds one run measures (the traced run measures a quarter)")
		trace        = flag.Int("trace", 0, "1: traced run at quarter scale reporting the per-layer metrics and writing a Chrome trace; 0: end-to-end metrics")
		repeat       = flag.Int("repeat", 1, "suite mode: run the whole suite this many times and report each metric's spread against its bound")
		baseline     = flag.String("baseline", "", "suite mode: also write the suite's results to this file")
		outDir       = flag.String("out", "out", "directory for reports, traces and scratch files")
		printSpec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace != 0, *repeat, *baseline, *outDir, *printSpec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds float64, traced bool, repeat int, baseline, outDir string, printSpec bool) error {
	if printSpec {
		b := spec()
		if err := b.validate(); err != nil {
			return err
		}
		return writeJSON(os.Stdout, b)
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if workloadName == "" {
		return runSuite(seed, seconds, traced, repeat, baseline, outDir)
	}
	w := findWorkload(workloadName)
	if w == nil {
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	rep, err := runWorkload(w, seed, seconds, traced, fullSizes, outDir)
	if err != nil {
		return err
	}
	printReport(os.Stderr, rep)
	return json.NewEncoder(os.Stdout).Encode(rep.line())
}
