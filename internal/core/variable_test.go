package core

import (
	"testing"

	"otif/internal/costmodel"
	"otif/internal/detect"
)

func TestVariableGapProducesTracks(t *testing.T) {
	sys := smallSystem(t)
	cfg := sys.Best
	cfg.Tracker = TrackerRecurrent
	cfg.Gap = 8
	cfg.VariableGap = true

	acct := costmodel.NewAccountant()
	res := sys.RunClip(cfg, sys.DS.Val[0].Clip, acct, nil)
	if len(res) == 0 {
		t.Fatal("variable-gap execution extracted no tracks")
	}
	if acct.Get(costmodel.OpDecode) <= 0 {
		t.Error("no decode cost charged")
	}

	// Fixed gap at the same setting for comparison: variable must not be
	// wildly more expensive than fixed at the same maximum gap (it can be
	// somewhat more when confidence drops trigger re-processing).
	fixedCfg := cfg
	fixedCfg.VariableGap = false
	fAcct := costmodel.NewAccountant()
	sys.RunClip(fixedCfg, sys.DS.Val[0].Clip, fAcct, nil)
	if acct.Total() > 8*fAcct.Total() {
		t.Errorf("variable gap cost %v explodes vs fixed %v", acct.Total(), fAcct.Total())
	}
}

func TestVariableGapFallsBackForSORT(t *testing.T) {
	sys := smallSystem(t)
	cfg := sys.Best
	cfg.Tracker = TrackerSORT
	cfg.Gap = 4
	cfg.VariableGap = true // only meaningful for the recurrent tracker
	// Must behave like fixed-gap SORT (no panic, frames at the fixed gap).
	sys.RunClip(cfg, sys.DS.Val[0].Clip, costmodel.NewAccountant(), func(idx int, _ []detect.Detection) {
		if idx%4 != 0 {
			t.Fatalf("frame %d processed despite fixed gap 4", idx)
		}
	})
}

func TestRunSetAggregates(t *testing.T) {
	sys := smallSystem(t)
	res := sys.RunSet(sys.Best, sys.DS.Val)
	if len(res.PerClip) != len(sys.DS.Val) {
		t.Fatalf("per-clip results = %d", len(res.PerClip))
	}
	if res.Runtime <= 0 {
		t.Error("zero runtime")
	}
	var sum float64
	for _, v := range res.Breakdown {
		sum += v
	}
	if diff := sum - res.Runtime; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("breakdown sum %v != runtime %v", sum, res.Runtime)
	}
}

func TestCtx(t *testing.T) {
	sys := smallSystem(t)
	ctx := sys.Ctx()
	if ctx.FPS != sys.DS.Cfg.FPS || ctx.NomW != sys.DS.Cfg.NomW {
		t.Error("context geometry wrong")
	}
	if ctx.Frames != sys.DS.Test[0].Clip.Len() {
		t.Error("context frame count wrong")
	}
}
