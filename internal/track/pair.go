package track

import (
	"fmt"
	"math"
	"math/rand"

	"otif/internal/costmodel"
	"otif/internal/detect"
	"otif/internal/nn"
)

// PairModel is the Miris-style pairwise matching model: an MLP that scores
// whether two detections in consecutive processed frames belong to the same
// object. Unlike the recurrent model it sees only the track's last
// detection, so it cannot exploit multi-frame motion cues — the limitation
// §3.4 of the paper calls out and the ablation (Table 4) quantifies.
type PairModel struct {
	Match *nn.MLP
	NomW  int
	NomH  int
	FPS   int
}

// NewPairModel creates an untrained pairwise matching model.
func NewPairModel(nomW, nomH, fps int, rng *rand.Rand) *PairModel {
	return &PairModel{
		Match: nn.NewMLP([]int{pairFeatDim, 16, 1}, nn.ReLUAct, nn.SigmoidAct, rng),
		NomW:  nomW,
		NomH:  nomH,
		FPS:   fps,
	}
}

// Validate reports why m cannot run on the tracker, or nil: its matcher
// must map the pair features to one probability.
func (m *PairModel) Validate() error {
	if err := m.Match.Validate(pairFeatDim, 1); err != nil {
		return fmt.Errorf("track: pair matcher: %w", err)
	}
	return nil
}

// PairTracker applies a PairModel online, forming tracks as chains of
// frame-to-frame matches. It keeps no state beyond the tracks themselves.
type PairTracker struct {
	online[struct{}]
	model *PairModel
	acct  *costmodel.Accountant // charged TrackerPerAssoc per scored pair
}

// NewPairTracker wraps a trained pair model with default inference
// settings.
func NewPairTracker(model *PairModel, acct *costmodel.Accountant) *PairTracker {
	return &PairTracker{online: online[struct{}]{MaxMisses: 2}, model: model, acct: acct}
}

// Update implements Tracker.
func (p *PairTracker) Update(ctx *FrameContext, dets []detect.Detection) {
	m := p.model
	cost := p.costs(len(dets))
	s := p.scratch // nil only with no active track, when nothing is scored
	p.scoreReachable(cost, dets, reach(ctx.GapFrames, m.FPS, m.NomW), p.acct, func(l *live[struct{}], j int) float64 {
		s.featBuf = AppendPairFeatures(s.featBuf[:0], l.track.Dets[len(l.track.Dets)-1], dets[j], m.NomW, m.NomH, m.FPS, ctx.GapFrames)
		return m.Match.ApplyWith(&s.nn, nn.Vec(s.featBuf))[0]
	})
	p.associate(cost, -math.Log(minProb), dets, nil, nil)
}
