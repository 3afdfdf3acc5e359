package core

import (
	"testing"

	"otif/internal/costmodel"
	"otif/internal/geom"
	"otif/internal/track"
)

func TestRunClipClampsProxyIndex(t *testing.T) {
	sys := smallSystem(t)
	cfg := sys.Best
	cfg.UseProxy = true
	cfg.ProxyThresh = 0.5
	for _, idx := range []int{-3, 99} {
		cfg.ProxyIdx = idx
		// An out-of-range index is clamped, not indexed with: no panic.
		sys.RunClip(cfg, sys.DS.Val[0].Clip, costmodel.NewAccountant(), nil)
	}
}

func TestRunClipUnknownTrackerFallsBackToSORT(t *testing.T) {
	sys := smallSystem(t)
	cfg := sys.Best
	cfg.Tracker = TrackerKind("bogus")
	res := sys.RunClip(cfg, sys.DS.Val[0].Clip, costmodel.NewAccountant(), nil)
	if len(res) == 0 {
		t.Error("fallback tracker produced no tracks")
	}
}

func TestProxyThresholdOneSkipsDetector(t *testing.T) {
	sys := smallSystem(t)
	cfg := sys.Best
	cfg.UseProxy = true
	cfg.ProxyIdx = 0
	cfg.ProxyThresh = 1.1 // nothing can exceed it: every frame is "empty"
	acct := costmodel.NewAccountant()
	res := sys.RunClip(cfg, sys.DS.Val[0].Clip, acct, nil)
	if acct.Get(costmodel.OpDetect) != 0 {
		t.Error("detector ran despite an impossible proxy threshold")
	}
	if len(res) != 0 {
		t.Error("tracks without any detections")
	}
}

func TestHighConfidenceThresholdYieldsFewerTracks(t *testing.T) {
	sys := smallSystem(t)
	loose := sys.Best
	loose.DetConf = 0
	strict := sys.Best
	strict.DetConf = 0.95
	a := sys.RunClip(loose, sys.DS.Val[0].Clip, costmodel.NewAccountant(), nil)
	b := sys.RunClip(strict, sys.DS.Val[0].Clip, costmodel.NewAccountant(), nil)
	if len(b) > len(a) {
		t.Errorf("strict confidence produced more tracks (%d > %d)", len(b), len(a))
	}
}

func TestQueryTracksWithoutRefinerIsIdentity(t *testing.T) {
	sys := smallSystem(t)
	tr := &track.Track{Category: "car", Dets: dets(8, 8, 40, 100, 200, 20)}
	cfg := sys.Best
	cfg.Refine = false
	out := sys.QueryTracks(cfg, []*track.Track{tr}, 100)
	if len(out[0].Path) != len(tr.Dets) {
		t.Error("path modified without refinement")
	}
}

func TestClassifierForAllDatasets(t *testing.T) {
	sys := smallSystem(t)
	c := ClassifierFor(sys.DS)
	// Caldot has buses configured, so very large boxes are buses.
	if got := c.Classify(geom.Rect{W: 300, H: 120}); got != "bus" {
		t.Errorf("large box classified as %s", got)
	}
	if got := c.Classify(geom.Rect{W: 52, H: 26}); got != "car" {
		t.Errorf("car-sized box classified as %s", got)
	}
}
