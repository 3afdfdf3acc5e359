package otif_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"otif"
)

// deterministicParts strips the live gauges, the pool traffic counters,
// the frame cache's fill counters, the render count and the decode-ahead
// producer count from a snapshot. The remaining counters, per-stage costs
// and histograms are deterministic for a given sequence of operations at
// any worker count; cache hit/miss gauges depend on worker interleaving
// (two workers can race to miss the same key), and sync.Pool hit/miss
// counters depend both on interleaving and on the runtime itself
// (race-enabled builds randomly drop pooled items), so both are excluded
// from determinism comparisons. Fills and renders happen on misses only,
// so they depend on what the cache already holds (a second extraction of
// the same clips fills nothing), and a reader's producers are a share of
// the worker pool (core.System.RunClips).
func deterministicParts(s otif.MetricsSnapshot) otif.MetricsSnapshot {
	s.Gauges = nil
	counters := make(map[string]int64, len(s.Counters))
	for k, v := range s.Counters {
		if !strings.Contains(k, ".pool.") && !strings.HasPrefix(k, "video.fill") &&
			k != "vidsim.renders" && k != "video.prefetch.producers" {
			counters[k] = v
		}
	}
	s.Counters = counters
	return s
}

func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	pipe, curve := pipeline(t)
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	var snaps []otif.MetricsSnapshot
	var runtimes []float64
	for _, w := range []int{1, 4} {
		otif.SetParallelism(w)
		otif.Metrics().Reset()
		ts, err := pipe.Extract(context.Background(), pick.Cfg, otif.Test)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, deterministicParts(otif.Snapshot()))
		runtimes = append(runtimes, ts.Runtime)
	}
	otif.SetParallelism(0)

	if runtimes[0] != runtimes[1] {
		t.Errorf("runtime differs across worker counts: %v vs %v", runtimes[0], runtimes[1])
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Errorf("metrics differ across worker counts:\n w=1: %+v\n w=4: %+v", snaps[0], snaps[1])
	}
}

func TestSnapshotCostTotalMatchesRuntime(t *testing.T) {
	pipe, curve := pipeline(t)
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	// Bracketing exactly one extraction between Metrics().Reset() and Snapshot
	// reproduces its simulated runtime bit-for-bit: per-stage costs are
	// charged once per RunSet in sorted category order, the same fold the
	// cost accountant uses.
	otif.Metrics().Reset()
	ts, err := pipe.Extract(context.Background(), pick.Cfg, otif.Test)
	if err != nil {
		t.Fatal(err)
	}
	snap := otif.Snapshot()
	if got := snap.CostTotal(); got != ts.Runtime {
		t.Errorf("CostTotal = %v, Runtime = %v; want bit-identical", got, ts.Runtime)
	}
	if n := snap.Counters["run.clips"]; n != 3 {
		t.Errorf("run.clips = %d, want 3", n)
	}
	if f := snap.Counters["run.frames"]; f <= 0 {
		t.Error("no frames recorded")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	pipe, curve := pipeline(t)
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	otif.Metrics().Reset()
	if _, err := pipe.Extract(context.Background(), pick.Cfg, otif.Test); err != nil {
		t.Fatal(err)
	}
	snap := otif.Snapshot()

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back otif.MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Counters, back.Counters) {
		t.Error("counters did not survive the JSON round trip")
	}
	if !reflect.DeepEqual(snap.Costs, back.Costs) {
		t.Error("costs did not survive the JSON round trip")
	}
}
