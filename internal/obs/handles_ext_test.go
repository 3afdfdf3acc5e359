package obs_test

import (
	"regexp"
	"testing"

	// Importing the root package transitively registers every
	// pre-registered metric handle in the pipeline (core, tuner, detect,
	// track, proxy, video/cache) into obs.Default.
	_ "otif"
	"otif/internal/obs"
)

// promNameRE is the Prometheus metric-name grammar.
var promNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Every pre-registered handle must normalize to a valid, unique
// Prometheus identifier — the exposition layer exports all of them, so a
// collision would silently merge two series.
func TestAllRegisteredHandlesNormalizeValidAndUnique(t *testing.T) {
	snap := obs.Default.Snapshot()
	var names []string
	for k := range snap.Counters {
		names = append(names, k)
	}
	for k := range snap.Costs {
		names = append(names, k)
	}
	for k := range snap.Gauges {
		names = append(names, k)
	}
	for k := range snap.Histograms {
		names = append(names, k)
	}
	if len(names) < 10 {
		t.Fatalf("expected the pipeline to pre-register at least 10 handles, got %d: %v", len(names), names)
	}
	seen := map[string]string{}
	for _, n := range names {
		p := obs.PromName(n)
		if !promNameRE.MatchString(p) {
			t.Errorf("handle %q normalizes to invalid Prometheus name %q", n, p)
		}
		if prev, dup := seen[p]; dup {
			t.Errorf("handles %q and %q collide after normalization (%q)", prev, n, p)
		}
		seen[p] = n
	}
	// Spot-check the known stage families are present and normalized.
	for _, want := range []string{"run.clips", "detect.invocations", "tune.iterations", "video.frames_decoded"} {
		if _, ok := snap.Counters[want]; !ok {
			t.Errorf("expected pre-registered counter %q", want)
		}
	}
}
