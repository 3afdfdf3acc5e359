package otif

import (
	"log/slog"

	"otif/internal/obs"
)

// Metrics returns the process-wide observability registry. Every pipeline
// stage records into it through pre-registered handles: frame, detection,
// proxy and tracker counters, per-op simulated cost totals, and frame-cache
// gauges. Recording is lock-free and allocation-free on the per-frame hot
// path and never changes pipeline results.
func Metrics() *obs.Registry { return obs.Default }

// MetricsSnapshot is a point-in-time, JSON-serializable copy of every
// registered counter, cost, gauge and histogram.
type MetricsSnapshot = obs.MetricsSnapshot

// Snapshot captures the current state of the metrics registry. Integer
// counters and per-op cost totals are deterministic for a given sequence of
// operations at any worker count; cache gauges depend on worker
// interleaving and are observational only. Bracketing one extraction
// between Metrics().Reset() and Snapshot yields that extraction's exact
// per-stage cost breakdown: the snapshot's CostTotal() equals the
// extraction's Runtime bit-for-bit.
func Snapshot() MetricsSnapshot { return obs.Default.Snapshot() }

// SetLogger installs a process-wide structured logger (or removes it with
// nil, the default). The pipeline logs only at coarse boundaries — a
// RunSet finishing, a tuner iteration choosing its candidate, an otifd job
// changing state — never per frame, and logging never changes results:
// extraction runtimes and tuning curves are bit-identical with logging
// enabled or disabled. With no logger installed every log site is a single
// atomic load, keeping deterministic benchmarks allocation-free.
func SetLogger(l *slog.Logger) { obs.SetLogger(l) }

// EnableTracing installs a process-wide flight recorder capturing the
// newest obs.DefaultRecorderSpans attributed spans and returns it. The
// recorder is a fixed-capacity ring that overwrites oldest-first, so a
// long-running process always retains the most recent window of spans
// under bounded memory; ring occupancy and overwritten-span counts are
// exported as trace.* gauges in every metrics snapshot. Tracing is off by
// default in the library (otifd turns it on); when off, span start/end
// sites read no clocks and do not allocate, keeping deterministic paths
// clock-free.
func EnableTracing() *obs.Recorder { return obs.EnableTracing(obs.DefaultRecorderSpans) }
