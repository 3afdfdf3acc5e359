package tuner

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"otif/internal/core"
	"otif/internal/dataset"
	"otif/internal/obs"
)

var cachedSys *core.System
var cachedMetric core.Metric

func trainedSystem(t testing.TB) (*core.System, core.Metric) {
	t.Helper()
	if cachedSys != nil {
		return cachedSys, cachedMetric
	}
	ds, err := dataset.Build("caldot1", dataset.SetSpec{Clips: 3, ClipSeconds: 5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(ds)
	metric := core.MetricFor(ds)
	best, _ := SelectBest(sys, metric)
	sys.FinishTraining(best, 42)
	cachedSys, cachedMetric = sys, metric
	return sys, metric
}

func TestSelectBestUsesSORTAtFullRateOrReduced(t *testing.T) {
	sys, _ := trainedSystem(t)
	best := sys.Best
	if best.Tracker != core.TrackerSORT {
		t.Errorf("theta_best tracker = %s, want sort (learned models not yet trained)", best.Tracker)
	}
	if best.UseProxy {
		t.Error("theta_best must not use a proxy model")
	}
	if best.Gap < 1 {
		t.Error("invalid gap")
	}
}

func TestSelectBestAccuracyIsHigh(t *testing.T) {
	sys, metric := trainedSystem(t)
	p := Evaluate(sys, sys.Best, sys.DS.Val, metric)
	if p.Accuracy < 0.6 {
		t.Errorf("theta_best accuracy = %v, want reasonably high", p.Accuracy)
	}
}

func TestTuneProducesDescendingRuntimes(t *testing.T) {
	sys, metric := trainedSystem(t)
	curve := Tune(sys, metric, DefaultOptions())
	if len(curve) < 4 {
		t.Fatalf("curve has %d points, want several", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Runtime >= curve[i-1].Runtime {
			t.Errorf("curve not speeding up at step %d: %v -> %v",
				i, curve[i-1].Runtime, curve[i].Runtime)
		}
	}
	// The fast end is much faster than the slow end.
	if curve[len(curve)-1].Runtime > curve[0].Runtime/5 {
		t.Errorf("tuner found only %vx speedup",
			curve[0].Runtime/curve[len(curve)-1].Runtime)
	}
}

func TestTuneEventuallyEnablesProxyAndGap(t *testing.T) {
	sys, metric := trainedSystem(t)
	curve := Tune(sys, metric, DefaultOptions())
	sawProxy, sawGap := false, false
	for _, p := range curve {
		if p.Cfg.UseProxy {
			sawProxy = true
		}
		if p.Cfg.Gap > 1 {
			sawGap = true
		}
	}
	if !sawProxy {
		t.Error("tuner never enabled the segmentation proxy model")
	}
	if !sawGap {
		t.Error("tuner never increased the sampling gap")
	}
}

func TestTuneModuleMask(t *testing.T) {
	sys, metric := trainedSystem(t)
	opts := DefaultOptions()
	opts.UseProxy = false
	opts.UseTracking = false
	opts.Tracker = core.TrackerSORT
	opts.MaxIters = 6
	curve := Tune(sys, metric, opts)
	for _, p := range curve {
		if p.Cfg.UseProxy {
			t.Error("proxy enabled despite the module mask")
		}
		if p.Cfg.Gap != 1 {
			t.Error("gap changed despite the module mask")
		}
		if p.Cfg.Tracker != core.TrackerSORT {
			t.Errorf("tracker = %s, want sort", p.Cfg.Tracker)
		}
	}
}

// TestTuneEvaluatesEachConfigOnce: one Tune runs RunSet once per distinct
// configuration among the detection grid, theta_best and the candidates,
// and still reports every candidate. theta_best is itself a grid cell, so
// without the memo it runs twice.
func TestTuneEvaluatesEachConfigOnce(t *testing.T) {
	sys, metric := trainedSystem(t)
	var runSets atomic.Int64
	prev := sys.Progress
	defer func() { sys.Progress = prev }()
	sys.Progress = func(e obs.Event) {
		if e.Kind == obs.EventClip && e.Index == 0 {
			runSets.Add(1)
		}
	}
	opts := DefaultOptions()
	var mu sync.Mutex
	candidates := 0
	distinct := map[string]bool{}
	opts.Progress = func(e obs.Event) {
		if e.Kind == obs.EventCandidate {
			mu.Lock()
			candidates++
			distinct[e.Config] = true
			mu.Unlock()
		}
	}
	curve := Tune(sys, metric, opts)

	grid := 0
	for _, arch := range opts.Archs {
		for _, scale := range core.DetScaleLadder {
			cfg := curve[0].Cfg
			cfg.Arch, cfg.DetScale = arch, scale
			distinct[fmt.Sprintf("%v", cfg)] = true
			grid++
		}
	}
	if !distinct[fmt.Sprintf("%v", curve[0].Cfg)] {
		t.Fatalf("theta_best %v is not a detection-grid cell", curve[0].Cfg)
	}
	if got := runSets.Load(); got != int64(len(distinct)) {
		t.Errorf("%d RunSets for %d distinct configurations (%d grid cells, theta_best, %d candidates)",
			got, len(distinct), grid, candidates)
	}
	// Every point after theta_best is the best of its iteration's
	// candidates, each of which is reported, memoised or not.
	if candidates < len(curve)-1 {
		t.Errorf("%d candidate events for a curve of %d points", candidates, len(curve))
	}
}

func TestFastestWithin(t *testing.T) {
	pts := []Point{
		{Runtime: 10, Accuracy: 0.90},
		{Runtime: 5, Accuracy: 0.88},
		{Runtime: 1, Accuracy: 0.70},
	}
	p, ok := FastestWithin(pts, 0.05)
	if !ok || p.Runtime != 5 {
		t.Errorf("FastestWithin = %v, %v", p, ok)
	}
	p, ok = FastestWithin(pts, 0.30)
	if !ok || p.Runtime != 1 {
		t.Errorf("loose tolerance = %v", p)
	}
	if _, ok := FastestWithin(nil, 0.05); ok {
		t.Error("empty points should not find anything")
	}
}

// TestFastestAtLeast pins the rule's comparisons: a point exactly at the
// floor qualifies, the first of equal runtimes wins, and a NaN accuracy
// neither qualifies nor sets the floor.
func TestFastestAtLeast(t *testing.T) {
	pts := []Point{
		{Runtime: 4, Accuracy: 0.80},
		{Runtime: 2, Accuracy: 0.75, Cfg: core.Config{Gap: 1}},
		{Runtime: 2, Accuracy: 0.90, Cfg: core.Config{Gap: 2}},
		{Runtime: 1, Accuracy: math.NaN()},
	}
	if p, ok := FastestAtLeast(pts, 0.75); !ok || p.Runtime != 2 || p.Cfg.Gap != 1 {
		t.Errorf("FastestAtLeast(0.75) = %+v, %v; want the first runtime-2 point", p, ok)
	}
	if p, ok := FastestAtLeast(pts, 0.85); !ok || p.Cfg.Gap != 2 {
		t.Errorf("FastestAtLeast(0.85) = %+v, %v; want the 0.90 point", p, ok)
	}
	if _, ok := FastestAtLeast(pts, 0.95); ok {
		t.Error("no point reaches 0.95")
	}
	if got := BestAccuracy(pts, []Point{{Accuracy: 0.85}}); got != 0.90 {
		t.Errorf("BestAccuracy = %v, want 0.90", got)
	}
	if got := BestAccuracy(); got != -1 {
		t.Errorf("BestAccuracy() = %v, want -1", got)
	}
}
