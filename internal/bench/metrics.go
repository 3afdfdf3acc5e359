package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"otif/internal/obs"
	"otif/internal/tuner"
	"otif/internal/video"
)

// This file implements `benchtables -metrics`: a per-stage cost breakdown
// of one test-set extraction next to a BENCH-style JSON record. The
// breakdown comes from the observability registry, whose per-stage cost
// counters are charged once per RunSet in sorted category order — so the
// summed breakdown reproduces the extraction's simulated Runtime
// bit-for-bit (asserted below and surfaced in the output).

// MetricsReport is the machine-readable half of the -metrics output.
type MetricsReport struct {
	Dataset string `json:"dataset"`
	Clips   int    `json:"clips"`
	// Config is the selected execution configuration (fastest within 5%
	// of the curve's best accuracy, the Table 2 rule).
	Config string `json:"config"`
	// Runtime is the extraction's simulated cost; CostTotal is the sum of
	// the per-stage registry counters. Exact reports Runtime == CostTotal
	// bit-for-bit.
	Runtime   float64            `json:"runtime"`
	CostTotal float64            `json:"cost_total"`
	Exact     bool               `json:"exact"`
	Stages    map[string]float64 `json:"stages"`
	Counters  map[string]int64   `json:"counters"`
	Cache     PerfCacheStats     `json:"cache"`
}

// PerfCacheStats summarizes frame-cache effectiveness during the measured
// extraction.
type PerfCacheStats struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// MetricsReportFor trains the dataset (memoized), extracts the test set
// under the fastest-within-5% configuration with the metrics registry
// bracketing exactly that run, and returns the per-stage report. The
// report's Exact flag asserts Runtime == CostTotal bit-for-bit; callers
// surface a mismatch as an error.
func (s *Suite) MetricsReportFor(name string) (*MetricsReport, error) {
	t, err := s.System(name)
	if err != nil {
		return nil, err
	}
	pick, ok := tuner.FastestWithin(t.Curve, 0.05)
	if !ok {
		return nil, fmt.Errorf("bench: empty tuning curve for %s", name)
	}

	// Bracket one RunSet between Reset and Snapshot: the snapshot then
	// holds exactly this extraction's costs and counters.
	obs.Default.Reset()
	res := t.Sys.RunSet(pick.Cfg, t.Sys.DS.Test)
	snap := obs.Default.Snapshot()

	total := snap.CostTotal()
	cs := video.GlobalCacheStats()
	return &MetricsReport{
		Dataset:   name,
		Clips:     len(t.Sys.DS.Test),
		Config:    fmt.Sprintf("%v", pick.Cfg),
		Runtime:   res.Runtime,
		CostTotal: total,
		Exact:     total == res.Runtime,
		Stages:    snap.Costs,
		Counters:  snap.Counters,
		Cache: PerfCacheStats{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Evictions: cs.Evictions,
			HitRate:   cs.HitRate(),
		},
	}, nil
}

// WriteMetricsJSON writes the dataset's metrics report as indented JSON
// (the `benchtables -metrics-out` payload). JSON float64 round-trips
// exactly, so the decoded file's stage sum still equals the BENCH
// Runtime bit-for-bit (asserted in TestMetricsOutStageSumMatchesRuntime).
func (s *Suite) WriteMetricsJSON(w io.Writer, name string) error {
	rep, err := s.MetricsReportFor(name)
	if err != nil {
		return err
	}
	if !rep.Exact {
		return fmt.Errorf("bench: breakdown sum %v != runtime %v", rep.CostTotal, rep.Runtime)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("bench: writing metrics report: %w", err)
	}
	return nil
}

// Metrics writes the per-stage cost breakdown as text plus a BENCH-style
// JSON record (`benchtables -metrics`).
func (s *Suite) Metrics(w io.Writer, name string) error {
	rep, err := s.MetricsReportFor(name)
	if err != nil {
		return err
	}
	fprintf(w, "per-stage cost breakdown: %s, %d test clips, cfg %s\n",
		rep.Dataset, rep.Clips, rep.Config)
	keys := make([]string, 0, len(rep.Stages))
	for k := range rep.Stages {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := rep.Stages[k]
		fprintf(w, "  %-24s %12.4fs  %5.1f%%\n", k, v, 100*v/rep.CostTotal)
	}
	fprintf(w, "  %-24s %12.4fs\n", "total", rep.CostTotal)
	fprintf(w, "  runtime %.6fs, breakdown sum %.6fs, exact match: %v\n",
		rep.Runtime, rep.CostTotal, rep.Exact)
	fprintf(w, "  cache: %d hits, %d misses, hit rate %.3f\n",
		rep.Cache.Hits, rep.Cache.Misses, rep.Cache.HitRate)
	if !rep.Exact {
		return fmt.Errorf("bench: breakdown sum %v != runtime %v", rep.CostTotal, rep.Runtime)
	}
	fprintf(w, "BENCH ")
	enc := json.NewEncoder(w)
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("bench: writing metrics report: %w", err)
	}
	return nil
}
