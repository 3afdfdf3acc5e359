package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// Suite mode runs every workload, each in a process of its own (so that
// peak memory, the frame cache and the metrics registry start clean), and
// with -repeat N does so N times with the same seed and judges every
// end-to-end metric's run-to-run spread against its bound.

// suiteFile is what -baseline writes.
type suiteFile struct {
	Seed    int64           `json:"seed"`
	Seconds float64         `json:"seconds"`
	Traced  bool            `json:"traced"`
	Machine machine         `json:"machine"`
	Rows    []suiteRow      `json:"rows"`
	Ops     map[string]opct `json:"operations"`
}

type suiteRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound,omitempty"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Spread   float64   `json:"spread"`
	InBound  bool      `json:"in_bound"`
}

type opct struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

func runSuite(seed int64, seconds float64, traced bool, repeat int, baseline, outDir string) error {
	if repeat < 1 {
		repeat = 1
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{} // "workload\x00metric" -> one value per repetition
	ops := map[string]opct{}
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "== run %d/%d: %s\n", rep+1, repeat, w.Name)
			line, err := runChild(self, w.Name, seed, seconds, traced, outDir)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			for name, mv := range line.Metrics {
				k := w.Name + "\x00" + name
				values[k] = append(values[k], mv.Value)
			}
			o := ops[w.Name]
			o.Attempted += line.Attempted
			o.Failed += line.Failed
			ops[w.Name] = o
		}
	}
	out := suiteFile{Seed: seed, Seconds: seconds, Traced: traced, Machine: fingerprint(), Ops: ops}
	allIn := true
	for _, w := range workloads {
		for _, m := range metricsFor(traced) {
			vs := values[w.Name+"\x00"+m.Name]
			row := suiteRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Better: m.Better, Values: vs, Median: median(vs), Spread: spread(vs), InBound: true}
			if m.Bound != nil {
				row.Bound = *m.Bound
				row.InBound = len(vs) < 2 || row.Spread <= row.Bound
			}
			allIn = allIn && row.InBound
			out.Rows = append(out.Rows, row)
		}
	}
	printSuite(os.Stdout, out)
	if baseline != "" {
		if err := writeJSONFile(baseline, out); err != nil {
			return err
		}
	}
	for name, o := range ops {
		if o.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", name, o.Failed, o.Attempted)
		}
	}
	if !allIn {
		return fmt.Errorf("a metric's spread over %d runs exceeded its bound", repeat)
	}
	return nil
}

// runChild runs one workload in a child process and parses the result
// line, the last line of its standard output. The child's report goes to
// standard error, passed through.
func runChild(self, name string, seed int64, seconds float64, traced bool, outDir string) (resultLine, error) {
	var line resultLine
	cmd := exec.Command(self,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(b2i(traced)), "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return line, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, fmt.Errorf("result line: %w", err)
	}
	return line, nil
}

func printSuite(w io.Writer, s suiteFile) {
	fmt.Fprintf(w, "machine: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, calib.spin_ms %.2f, calib.stream_ms %.2f\n",
		s.Machine.CPUModel, s.Machine.NumCPU, s.Machine.GOMAXPROCS, s.Machine.GoVersion, s.Machine.Commit, s.Machine.SpinMS, s.Machine.StreamMS)
	fmt.Fprintf(w, "seed %d, %.0f s measured per run, traced %v\n\n", s.Seed, s.Seconds, s.Traced)
	fmt.Fprintf(w, "%-14s %-28s %-6s %-7s %-6s %12s %8s %-4s  %s\n", "workload", "metric", "unit", "better", "bound", "median", "spread", "ok", "runs")
	for _, r := range s.Rows {
		bound, ok := "-", "-"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*r.Bound)
			ok = "yes"
			if !r.InBound {
				ok = "NO"
			}
		}
		runs := make([]string, len(r.Values))
		for i, v := range r.Values {
			runs[i] = fmt.Sprintf("%.4g", v)
		}
		fmt.Fprintf(w, "%-14s %-28s %-6s %-7s %-6s %12.4f %7.1f%% %-4s  %s\n",
			r.Workload, r.Metric, r.Unit, r.Better, bound, r.Median, 100*r.Spread, ok, strings.Join(runs, " "))
	}
	fmt.Fprintln(w)
	for _, wl := range workloads {
		o := s.Ops[wl.Name]
		fmt.Fprintf(w, "%-14s operations attempted %d, failed %d\n", wl.Name, o.Attempted, o.Failed)
	}
}

// printReport is the human-readable form of one run: every metric by name
// with unit, direction and bound, then the distributions behind the
// timings.
func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "%s seed %d, %.1f s, traced %v, calib.spin_ms %.2f, calib.stream_ms %.2f (%s, nproc %d, GOMAXPROCS %d, %s, commit %s)\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Machine.SpinMS, r.Machine.StreamMS, r.Machine.CPUModel, r.Machine.NumCPU, r.Machine.GOMAXPROCS, r.Machine.GoVersion, r.Machine.Commit)
	for _, m := range metricsFor(r.Traced) {
		bound := ""
		if m.Bound != nil {
			bound = fmt.Sprintf("  bound %.0f%%", 100**m.Bound)
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-6s %s is better%s\n", m.Name, r.Metrics[m.Name], m.Unit, m.Better, bound)
	}
	names := make([]string, 0, len(r.Dists))
	for name := range r.Dists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := r.Dists[name]
		fmt.Fprintf(w, "  %-12s n=%d q1 %.3f p50 %.3f q3 %.3f p%.0f %.3f ms\n", name, d.N, d.Q1, d.P50, d.Q3, d.TailPct, d.Tail)
	}
	if d := r.Factor; d != nil {
		fmt.Fprintf(w, "  machine factor (timings are divided by it; 1 = the quiet reference box) n=%d q1 %.3f p50 %.3f q3 %.3f\n", d.N, d.Q1, d.P50, d.Q3)
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s (%d spans)\n", r.TraceFile, r.Spans)
	}
}
