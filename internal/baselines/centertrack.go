package baselines

import (
	"math/rand"

	"otif/internal/core"
	"otif/internal/track"
)

// CenterTrack is our stand-in for the CenterTrack multi-object tracker
// (Zhou et al., ECCV 2020): a high-accuracy tracker designed for native
// framerate and resolution. We obtain a speed-accuracy tradeoff by tuning
// resolution and framerate, as the paper does — but, faithfully to the
// original design, the matching model is trained only on consecutive
// frames (no gap augmentation), so accuracy falls off quickly once the
// framerate is reduced, which is why CenterTrack performs poorly on the
// speed-accuracy tradeoff (§4.1).
type CenterTrack struct {
	// Scales and Gaps define the tuning sweep.
	Scales []float64
	Gaps   []int

	model *track.PairModel
}

// NewCenterTrack returns the CenterTrack baseline.
func NewCenterTrack() *CenterTrack {
	return &CenterTrack{
		Scales: []float64{1.0, 0.7, 0.49},
		Gaps:   []int{1, 2, 4},
	}
}

// Name implements TrackMethod.
func (c *CenterTrack) Name() string { return "CenterTrack" }

// Tune implements TrackMethod. The native-rate matching model is trained
// on S* without gap augmentation (Gaps = {1}).
func (c *CenterTrack) Tune(sys *core.System, metric core.Metric) []Candidate {
	if c.model == nil {
		rng := rand.New(rand.NewSource(99))
		c.model = track.NewPairModel(sys.DS.Cfg.NomW, sys.DS.Cfg.NomH, sys.DS.Cfg.FPS, rng)
		clips := make([]track.TrainClip, len(sys.SStar))
		for i, tr := range sys.SStar {
			clips[i] = track.TrainClip{Tracks: tr}
		}
		opts := track.DefaultTrainOptions()
		opts.Gaps = []int{1} // native-rate training only
		track.TrainPair(c.model, clips, opts, sys.Acct)
	}

	// CenterTrack runs on a shallow copy of the system whose pair model
	// is the native-rate one, so the pipeline machinery is reused while
	// the matching behaviour is CenterTrack's, and the shared system is
	// never written.
	native := *sys
	native.Pair = c.model
	var out []Candidate
	for _, scale := range c.Scales {
		for _, gap := range c.Gaps {
			out = append(out, newCandidate(sys, metric, native.Extractor(core.Config{
				Arch:     sys.Best.Arch,
				DetScale: scale,
				DetConf:  core.DetConfDefault,
				Gap:      gap,
				Tracker:  core.TrackerPair,
			})))
		}
	}
	return out
}
