package core

import (
	"testing"

	"otif/internal/costmodel"
	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/query"
	"otif/internal/track"
)

// smallSystem returns a trained system on a tiny caldot1 instance, shared
// across tests in this package.
var cachedSys *System

func smallSystem(t *testing.T) *System {
	t.Helper()
	if cachedSys != nil {
		return cachedSys
	}
	ds, err := dataset.Build("caldot1", dataset.SetSpec{Clips: 3, ClipSeconds: 5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(ds)
	best := Config{Arch: detect.ArchYOLO, DetScale: 1.0, DetConf: DetConfDefault, Gap: 1, Tracker: TrackerSORT}
	sys.FinishTraining(best, 42)
	cachedSys = sys
	return sys
}

func TestNewSystemTrainsBackground(t *testing.T) {
	sys := smallSystem(t)
	if sys.Background == nil {
		t.Fatal("no background model")
	}
	if sys.Acct.Get(costmodel.OpTrainDet) != TrainDetectorCost {
		t.Error("detector training cost not charged")
	}
}

func TestFinishTrainingProducesArtifacts(t *testing.T) {
	sys := smallSystem(t)
	if len(sys.Proxies) != 5 {
		t.Errorf("proxies = %d, want 5 (paper trains 5 resolutions)", len(sys.Proxies))
	}
	if len(sys.WindowSizes) == 0 || len(sys.WindowSizes) > 2 {
		t.Errorf("window sizes = %v, want 1-2 beyond the full frame (k=3)", sys.WindowSizes)
	}
	if sys.Recurrent == nil || sys.Pair == nil {
		t.Error("tracking models not trained")
	}
	if sys.Refiner == nil {
		t.Error("refiner not built for a fixed camera")
	}
	if len(sys.SStar) != len(sys.DS.Train) {
		t.Errorf("S* has %d clips", len(sys.SStar))
	}
}

func TestRunClipProducesTracks(t *testing.T) {
	sys := smallSystem(t)
	acct := costmodel.NewAccountant()
	res := sys.RunClip(sys.Best, sys.DS.Val[0].Clip, acct, nil)
	if len(res) == 0 {
		t.Fatal("no tracks extracted")
	}
	if acct.Get(costmodel.OpDetect) <= 0 || acct.Get(costmodel.OpDecode) <= 0 {
		t.Error("costs not charged")
	}
	for _, tr := range res {
		if len(tr.Dets) < 2 {
			t.Error("length-1 track not pruned")
		}
	}
}

func TestProxyConfigReducesDetectorCost(t *testing.T) {
	sys := smallSystem(t)
	base := sys.Best
	base.Gap = 2
	noProxy := costmodel.NewAccountant()
	sys.RunClip(base, sys.DS.Val[0].Clip, noProxy, nil)

	withProxy := base
	withProxy.UseProxy = true
	withProxy.ProxyIdx = 0
	withProxy.ProxyThresh = 0.3
	p := costmodel.NewAccountant()
	sys.RunClip(withProxy, sys.DS.Val[0].Clip, p, nil)
	if p.Get(costmodel.OpDetect) > noProxy.Get(costmodel.OpDetect) {
		t.Errorf("proxy increased detector cost: %v vs %v",
			p.Get(costmodel.OpDetect), noProxy.Get(costmodel.OpDetect))
	}
	if p.Get(costmodel.OpProxy) <= 0 {
		t.Error("proxy cost not charged")
	}
}

func TestGapReducesTotalCost(t *testing.T) {
	sys := smallSystem(t)
	cost := func(gap int) float64 {
		cfg := sys.Best
		cfg.Gap = gap
		acct := costmodel.NewAccountant()
		sys.RunClip(cfg, sys.DS.Val[0].Clip, acct, nil)
		return acct.Total()
	}
	if !(cost(8) < cost(2) && cost(2) < cost(1)) {
		t.Error("larger gaps must cost less")
	}
}

func TestQueryTracksRefinementGating(t *testing.T) {
	sys := smallSystem(t)
	clipLen := sys.DS.Val[0].Clip.Len()
	// A sampling-truncated track in the middle of the clip extends; a
	// boundary track does not.
	gap := 8
	mid := &track.Track{Category: "car", Dets: dets(gap, 2*gap, 6*gap, 60, 300, 30)}
	boundary := &track.Track{Category: "car", Dets: dets(0, gap, 3*gap, 60, 300, 30)}
	cfg := sys.Best
	cfg.Gap = gap
	cfg.Refine = true
	out := sys.QueryTracks(cfg, []*track.Track{mid, boundary}, clipLen)
	if len(out) != 2 {
		t.Fatal("wrong output count")
	}
	if len(out[0].Path) < len(mid.Dets) {
		t.Error("path lost points")
	}
	if len(out[1].Path) > len(boundary.Dets)+1 {
		t.Error("boundary-truncated track must not be extended at its start")
	}
}

// dets builds a west-to-east run of detections at the given frames.
func dets(f0, step, fEnd int, x0, y, vPerFrame float64) []detect.Detection {
	var out []detect.Detection
	for f := f0; f <= fEnd; f += step {
		out = append(out, detect.Detection{
			FrameIdx: f,
			Box:      geom.Rect{X: x0 + vPerFrame*float64(f-f0), Y: y, W: 50, H: 25},
			Category: "car",
		})
	}
	return out
}

func TestMetricFor(t *testing.T) {
	for _, name := range dataset.Names() {
		ds, err := dataset.Build(name, dataset.SetSpec{Clips: 1, ClipSeconds: 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := MetricFor(ds)
		switch name {
		case "amsterdam", "jackson":
			if m.Name() != "track-count" {
				t.Errorf("%s metric = %s", name, m.Name())
			}
		default:
			if m.Name() != "path-breakdown" {
				t.Errorf("%s metric = %s", name, m.Name())
			}
		}
	}
}

func TestPathBreakdownMetricPerfectPrediction(t *testing.T) {
	sys := smallSystem(t)
	metric := MetricFor(sys.DS).(PathBreakdownMetric)
	// Build per-clip predictions directly from ground truth paths.
	perClip := make([][]*query.Track, len(sys.DS.Val))
	for i, ct := range sys.DS.Val {
		paths := map[int]geom.Path{}
		cats := map[int]string{}
		for f := 0; f < ct.Clip.Len(); f++ {
			for _, gt := range ct.Truth(f) {
				paths[gt.ID] = append(paths[gt.ID], gt.Box.Center())
				cats[gt.ID] = string(gt.Cat)
			}
		}
		for id, p := range paths {
			perClip[i] = append(perClip[i], &query.Track{
				ID: id, Category: cats[id], Path: p,
			})
		}
	}
	if acc := metric.Accuracy(perClip, sys.DS.Val); acc < 0.999 {
		t.Errorf("oracle prediction accuracy = %v, want 1", acc)
	}
}

func TestTrackCountMetric(t *testing.T) {
	ds, err := dataset.Build("jackson", dataset.SetSpec{Clips: 2, ClipSeconds: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	metric := TrackCountMetric{Category: "car"}
	// Oracle prediction: one track per true car.
	perClip := make([][]*query.Track, len(ds.Val))
	for i, ct := range ds.Val {
		seen := map[int]bool{}
		for f := 0; f < ct.Clip.Len(); f++ {
			for _, gt := range ct.Truth(f) {
				if gt.Cat == "car" && !seen[gt.ID] {
					seen[gt.ID] = true
					perClip[i] = append(perClip[i], &query.Track{ID: gt.ID, Category: "car"})
				}
			}
		}
	}
	if acc := metric.Accuracy(perClip, ds.Val); acc != 1 {
		t.Errorf("oracle accuracy = %v", acc)
	}
	// Empty predictions score poorly when cars exist.
	empty := make([][]*query.Track, len(ds.Val))
	if acc := metric.Accuracy(empty, ds.Val); acc > 0.5 {
		t.Errorf("empty prediction accuracy = %v, want low", acc)
	}
}

func TestNextGapForSpeedup(t *testing.T) {
	if got := NextGapForSpeedup(1, 0.3); got != 2 {
		t.Errorf("NextGap(1) = %d", got)
	}
	if got := NextGapForSpeedup(8, 0.3); got != 16 {
		t.Errorf("NextGap(8) = %d", got)
	}
	if got := NextGapForSpeedup(32, 0.3); got != 32 {
		t.Errorf("NextGap at max = %d, want clamped", got)
	}
}

func TestDetScaleLadderDescends30Percent(t *testing.T) {
	for i := 1; i < len(DetScaleLadder); i++ {
		ratio := DetScaleLadder[i] * DetScaleLadder[i] / (DetScaleLadder[i-1] * DetScaleLadder[i-1])
		if ratio < 0.69 || ratio > 0.71 {
			t.Errorf("pixel ratio step %d = %v, want 0.7 (C = 30%%)", i, ratio)
		}
	}
}

func TestMaxMisses(t *testing.T) {
	if got := maxMisses(30, 1); got != 24 {
		t.Errorf("maxMisses(30,1) = %d, want 24 (0.8s)", got)
	}
	if got := maxMisses(30, 32); got != 2 {
		t.Errorf("maxMisses(30,32) = %d, want floor of 2", got)
	}
}
