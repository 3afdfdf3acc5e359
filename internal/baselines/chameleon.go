package baselines

import (
	"otif/internal/core"
	"otif/internal/detect"
)

// Chameleon is our implementation of the Chameleon video analytics
// adaptation system (Jiang et al., SIGCOMM 2018): it hill-climbs over the
// detector knobs — architecture, input resolution, and sampling framerate —
// to find profitable configurations, but has neither a segmentation proxy
// model nor a learned reduced-rate tracker (it uses the heuristic tracker),
// so its framerate reductions are limited by how quickly IoU-based
// association breaks down.
type Chameleon struct {
	// Gaps are the framerate-reduction candidates Chameleon explores.
	Gaps []int
}

// NewChameleon returns the Chameleon baseline.
func NewChameleon() *Chameleon { return &Chameleon{Gaps: []int{1, 2, 4}} }

// Name implements TrackMethod.
func (c *Chameleon) Name() string { return "Chameleon" }

// Tune implements TrackMethod: a hill-climbing sweep over (architecture,
// resolution, framerate) with the heuristic tracker. Starting from the
// most expensive configuration, it repeatedly applies the single knob
// change with the best accuracy-per-speedup ratio, emitting each visited
// configuration as a candidate — Chameleon's periodic profiling phase,
// condensed to the per-dataset tuning the evaluation measures.
func (c *Chameleon) Tune(sys *core.System, metric core.Metric) []Candidate {
	type knob struct {
		arch  detect.Arch
		scale float64
		gap   int
	}
	eval := func(k knob) Candidate {
		return newCandidate(sys, metric, sys.Extractor(core.Config{
			Arch: k.arch, DetScale: k.scale, DetConf: core.DetConfDefault,
			Gap: k.gap, Tracker: core.TrackerSORT,
		}))
	}

	cur := knob{detect.ArchRCNN, core.DetScaleLadder[0], 1}
	curCand := eval(cur)
	out := []Candidate{curCand}
	for iter := 0; iter < 10; iter++ {
		// Neighbor moves: next architecture, next resolution step, next
		// framerate step.
		var moves []knob
		if cur.arch == detect.ArchRCNN {
			moves = append(moves, knob{detect.ArchYOLO, cur.scale, cur.gap})
		}
		if i := scaleIndex(cur.scale); i+1 < len(core.DetScaleLadder) {
			moves = append(moves, knob{cur.arch, core.DetScaleLadder[i+1], cur.gap})
		}
		if i := gapIndex(c.Gaps, cur.gap); i+1 < len(c.Gaps) {
			moves = append(moves, knob{cur.arch, cur.scale, c.Gaps[i+1]})
		}
		if len(moves) == 0 {
			break
		}
		bestRatio := -1.0
		var bestKnob knob
		var bestCand Candidate
		for _, mv := range moves {
			cand := eval(mv)
			speedup := curCand.ValRuntime - cand.ValRuntime
			if speedup <= 0 {
				continue
			}
			// Accuracy retained per unit of speedup.
			ratio := (1 + cand.ValAccuracy - curCand.ValAccuracy) / 1
			if ratio > bestRatio {
				bestRatio = ratio
				bestKnob = mv
				bestCand = cand
			}
		}
		if bestRatio < 0 {
			break
		}
		cur = bestKnob
		curCand = bestCand
		out = append(out, bestCand)
	}
	return out
}

func scaleIndex(scale float64) int {
	for i, s := range core.DetScaleLadder {
		if s == scale {
			return i
		}
	}
	return len(core.DetScaleLadder) - 1
}

func gapIndex(gaps []int, g int) int {
	for i, v := range gaps {
		if v == g {
			return i
		}
	}
	return len(gaps) - 1
}
