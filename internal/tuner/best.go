// Package tuner implements OTIF's parameter selection: the best-accuracy
// configuration theta_best used to label training data (§3.3), and the
// greedy joint parameter tuner that produces a speed-accuracy curve of
// configurations approximating the Pareto frontier (§3.5).
package tuner

import (
	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/dataset"
	"otif/internal/detect"
)

// Point is one tuned configuration with its validation-set performance.
type Point struct {
	Cfg      core.Config
	Runtime  float64 // simulated seconds over the validation set
	Accuracy float64
}

// Evaluate runs cfg over the clips and scores it with the metric.
func Evaluate(sys *core.System, cfg core.Config, clips []*dataset.ClipTruth, metric core.Metric) Point {
	res := sys.RunSet(cfg, clips)
	return Point{
		Cfg:      cfg,
		Runtime:  res.Runtime,
		Accuracy: metric.Accuracy(res.PerClip, clips),
	}
}

// SelectBest chooses the best-accuracy configuration theta_best on the
// validation set (§3.3): starting from the slowest possible configuration
// (no proxy model, the expensive detector architecture at maximum
// resolution, maximum sampling rate, heuristic SORT tracker), repeatedly
// reduce the detector resolution in ~30% speed steps until accuracy drops,
// then reduce the sampling rate the same way, keeping the settings with
// the best achieved accuracy. Accuracy is often higher at lower
// resolutions, which is why this descent is worth its cost.
func SelectBest(sys *core.System, metric core.Metric) (core.Config, Point) {
	cfg := core.Config{
		Arch:     detect.ArchRCNN,
		DetScale: core.DetScaleLadder[0],
		DetConf:  core.DetConfDefault,
		Gap:      1,
		Tracker:  core.TrackerSORT,
	}
	best := Evaluate(sys, cfg, sys.DS.Val, metric)
	sys.Acct.Add(costmodel.OpTune, best.Runtime)

	// Descend the resolution ladder while accuracy does not drop, then the
	// sampling-rate ladder the same way.
	ladders := []struct {
		rungs int
		set   func(c *core.Config, rung int)
	}{
		{len(core.DetScaleLadder), func(c *core.Config, rung int) { c.DetScale = core.DetScaleLadder[rung] }},
		{len(core.GapLadder), func(c *core.Config, rung int) { c.Gap = core.GapLadder[rung] }},
	}
	for _, l := range ladders {
		for rung := 1; rung < l.rungs; rung++ {
			cand := cfg
			l.set(&cand, rung)
			p := Evaluate(sys, cand, sys.DS.Val, metric)
			sys.Acct.Add(costmodel.OpTune, p.Runtime)
			if p.Accuracy < best.Accuracy {
				break
			}
			best = p
			cfg = cand
		}
	}
	return cfg, best
}
