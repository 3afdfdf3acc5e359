// Package serve is OTIF's live exposition layer: it renders the
// observability registry (internal/obs) in Prometheus text exposition
// format, runs background extract and stream jobs whose progress events
// stream over SSE, and wires both — plus health, readiness and pprof —
// onto a stdlib net/http mux served by cmd/otifd.
//
// Everything here is read-only with respect to pipeline results: the
// daemon can scrape, stream and profile a running extraction without
// changing a single output bit (the serve tests assert bit-identical
// runtimes with scraping and logging enabled vs disabled).
package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"otif/internal/obs"
)

// DefaultPrefix namespaces every exported series.
const DefaultPrefix = "otif"

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4). Registry names are normalized with
// obs.PromName and namespaced under DefaultPrefix:
//
//   - integer counters export as `otif_<name>_total` counter series;
//   - float cost counters (simulated seconds) export as
//     `otif_<name>_seconds_total` counter series;
//   - gauges export as `otif_<name>` gauge series;
//   - histograms export with cumulative `_bucket{le="..."}` series
//     (including the mandatory `le="+Inf"`), `_sum` and `_count`.
//
// Output is sorted by metric name, so equal snapshots render
// byte-identically — the golden test pins the exact format.
func WritePrometheus(w io.Writer, s obs.MetricsSnapshot) error {
	name := func(raw, suffix string) string {
		return DefaultPrefix + "_" + obs.PromName(raw) + suffix
	}

	var keys []string
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := name(k, "_total")
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[k]); err != nil {
			return err
		}
	}

	keys = keys[:0]
	for k := range s.Costs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := name(k, "_seconds_total")
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", n, n, formatFloat(s.Costs[k])); err != nil {
			return err
		}
	}

	keys = keys[:0]
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := name(k, "")
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, formatFloat(s.Gauges[k])); err != nil {
			return err
		}
	}

	keys = keys[:0]
	for k := range s.Histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := writeHistogram(w, name(k, ""), s.Histograms[k]); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram emits one histogram's cumulative bucket, sum and count
// series.
func writeHistogram(w io.Writer, n string, h obs.HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
		return err
	}
	var cum int64
	for i, b := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", n, formatFloat(h.Sum), n, h.Count); err != nil {
		return err
	}
	return nil
}

// formatFloat renders a float the way Prometheus clients expect: the
// shortest representation that round-trips, so exported values carry the
// exact bits the registry holds.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
