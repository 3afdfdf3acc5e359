package track

import (
	"fmt"
	"math"
	"math/rand"

	"otif/internal/costmodel"
	"otif/internal/detect"
	"otif/internal/nn"
)

// RecurrentModel is the learned matching model of OTIF's recurrent
// reduced-rate tracker (§3.4). A GRU cell folds the detection-level
// features of a track prefix into a track-level feature vector; a matching
// MLP scores how likely a new detection continues that track.
type RecurrentModel struct {
	Hidden int
	GRU    *nn.GRUCell
	Match  *nn.MLP
	NomW   int
	NomH   int
	FPS    int
}

// NewRecurrentModel creates an untrained recurrent tracking model for the
// given frame geometry and framerate.
func NewRecurrentModel(nomW, nomH, fps int, rng *rand.Rand) *RecurrentModel {
	const hidden = 16
	return &RecurrentModel{
		Hidden: hidden,
		GRU:    nn.NewGRUCell(FeatDim, hidden, rng),
		Match:  nn.NewMLP([]int{hidden + FeatDim + MotionDim, 24, 1}, nn.ReLUAct, nn.SigmoidAct, rng),
		NomW:   nomW,
		NomH:   nomH,
		FPS:    fps,
	}
}

// maxHidden bounds a loaded model's hidden size, sixteen times the
// trained one: the tracker holds one hidden vector per live track.
const maxHidden = 256

// Validate reports why m cannot run on the tracker, or nil: a hidden size
// out of bounds, a GRU that does not step FeatDim features through Hidden
// units, or a matcher that does not map [h, f, motion] to one probability.
func (m *RecurrentModel) Validate() error {
	if m.Hidden < 1 || m.Hidden > maxHidden {
		return fmt.Errorf("track: recurrent model Hidden %d outside [1, %d]", m.Hidden, maxHidden)
	}
	if m.GRU.InSize != FeatDim || m.GRU.HiddenSize != m.Hidden {
		return fmt.Errorf("track: recurrent GRU is %d→%d, want %d→%d", m.GRU.InSize, m.GRU.HiddenSize, FeatDim, m.Hidden)
	}
	if err := m.GRU.Validate(); err != nil {
		return fmt.Errorf("track: recurrent GRU: %w", err)
	}
	if err := m.Match.Validate(m.Hidden+FeatDim+MotionDim, 1); err != nil {
		return fmt.Errorf("track: recurrent matcher: %w", err)
	}
	return nil
}

// Score returns the matching probability p_{i,j} between the track-level
// features (GRU state h plus motion-delta features) and a detection
// feature vector f. It is read-only on the model, so concurrent clip
// execution can share one trained model.
func (m *RecurrentModel) Score(h, f, motion nn.Vec) float64 {
	return m.Match.Apply(nn.Concat(h, f, motion))[0]
}

// RecurrentTracker applies a trained RecurrentModel online at a fixed
// sampling gap: on each processed frame it scores every (active track,
// detection) pair, solves the assignment, extends matched tracks, starts
// new tracks from unmatched detections, and terminates tracks that go
// unmatched for MaxMisses consecutive processed frames. A track's state is
// its GRU hidden vector.
type RecurrentTracker struct {
	online[nn.Vec]
	model *RecurrentModel
	acct  *costmodel.Accountant // charged TrackerPerAssoc per scored pair
	// Prec is named by benchmark/replay.go; delete with the next benchmark
	// PR. Nothing reads it.
	Prec nn.Precision

	// lastConf is the minimum matching probability among the previous
	// Update's accepted associations (1 when there were none). The
	// variable-rate execution mode uses it to decide whether the gap can
	// grow (§3.4 of the paper discusses this Miris-style policy; OTIF
	// defaults to a fixed gap after finding the two comparable).
	lastConf float64
}

// NewRecurrentTracker wraps a trained model with the default inference
// settings.
func NewRecurrentTracker(model *RecurrentModel, acct *costmodel.Accountant) *RecurrentTracker {
	return &RecurrentTracker{online: online[nn.Vec]{MaxMisses: 2}, model: model, acct: acct}
}

// Update implements Tracker.
func (r *RecurrentTracker) Update(ctx *FrameContext, dets []detect.Detection) {
	m := r.model
	s := r.scratchRef()
	r.lastConf = 1
	// Every candidate's t_elapsed is the round's gap, even against a track
	// that missed rounds; training uses the real distance (DESIGN §5).
	feats := s.detFeatureRows(dets, m.NomW, m.NomH, m.FPS, ctx.GapFrames)
	cost := r.costs(len(dets))
	r.scoreReachable(cost, dets, reach(ctx.GapFrames, m.FPS, m.NomW), r.acct, func(l *live[nn.Vec], j int) float64 {
		s.motion = AppendMotionFeatures(s.motion[:0], l.track.Dets, dets[j], m.NomW, m.NomH)
		return m.scoreWith(s, l.state, feats[j], nn.Vec(s.motion))
	})
	r.associate(cost, -math.Log(minProb), dets, func(l *live[nn.Vec], j int, c float64) {
		if p := math.Exp(-c); p < r.lastConf {
			r.lastConf = p
		}
		m.GRU.StepInferInto(l.state, l.state, feats[j], &s.nn)
	}, r.start)
}

// scoreWith is Score evaluated through the tracker scratch: the inputs are
// concatenated into a reused buffer and the matching MLP runs on scratch
// ping-pong buffers. Output is bit-identical to Score's.
func (m *RecurrentModel) scoreWith(s *Scratch, h, f, motion nn.Vec) float64 {
	in := growVec(&s.in, len(h)+len(f)+len(motion))
	copy(in, h)
	copy(in[len(h):], f)
	copy(in[len(h)+len(f):], motion)
	return m.Match.ApplyWith(&s.nn, in)[0]
}

// start returns a new track's hidden vector. The first detection's
// feature uses t_elapsed = 0, matching how training prefixes begin. The
// vector is drawn from the scratch arena (tracks never outlive their
// tracker's Finish).
func (r *RecurrentTracker) start(d detect.Detection) nn.Vec {
	s := r.scratchRef()
	s.startFeat = AppendDetFeatures(s.startFeat[:0], d, r.model.NomW, r.model.NomH, r.model.FPS, 0)
	h := s.arena.alloc(r.model.Hidden)
	r.model.GRU.StepInferInto(h, h, nn.Vec(s.startFeat), &s.nn)
	return h
}

// LastConfidence returns the minimum accepted matching probability of the
// most recent Update (1 if nothing was matched).
func (r *RecurrentTracker) LastConfidence() float64 {
	if r.lastConf == 0 {
		return 1
	}
	return r.lastConf
}
