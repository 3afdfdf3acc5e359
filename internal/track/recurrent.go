package track

import (
	"math"
	"math/rand"
	"sort"

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
// unmatched for MaxMisses consecutive processed frames.
type RecurrentTracker struct {
	Model *RecurrentModel
	// MinProb is the minimum matching probability for a valid
	// association.
	MinProb float64
	// MaxMisses is how many processed frames a track survives unmatched.
	MaxMisses int
	// MaxSpeed (nominal px/sec) gates implausible associations: a
	// detection further from the track's last box than MaxSpeed * dt
	// plus a slack term can never match. This mirrors the spatial
	// locality that a learned CNN matcher absorbs from data.
	MaxSpeed float64
	// Acct is charged TrackerPerAssoc per scored pair.
	Acct *costmodel.Accountant
	// Prec is named by benchmark/replay.go; delete with the next benchmark
	// PR. Nothing reads it.
	Prec nn.Precision

	active []*recTrack
	done   []*Track

	// lastConf is the minimum matching probability among the previous
	// Update's accepted associations (1 when there were none). The
	// variable-rate execution mode uses it to decide whether the gap can
	// grow (§3.4 of the paper discusses this Miris-style policy; OTIF
	// defaults to a fixed gap after finding the two comparable).
	lastConf float64

	// scratch makes each Update round allocation-free; it also means a
	// tracker instance must be driven by a single goroutine. It is drawn
	// from the scratch pool on first Update and released by Finish.
	scratch *matchScratch
}

type recTrack struct {
	track  Track
	hidden nn.Vec
	misses int
}

// NewRecurrentTracker wraps a trained model with the default inference
// settings.
func NewRecurrentTracker(model *RecurrentModel, acct *costmodel.Accountant) *RecurrentTracker {
	return &RecurrentTracker{
		Model:     model,
		MinProb:   0.5,
		MaxMisses: 2,
		MaxSpeed:  500,
		Acct:      acct,
	}
}

// scratchRef returns the tracker's scratch, acquiring one from the pool
// on first use.
func (r *RecurrentTracker) scratchRef() *matchScratch {
	if r.scratch == nil {
		r.scratch = getScratch()
	}
	return r.scratch
}

// Update implements Tracker.
func (r *RecurrentTracker) Update(ctx *FrameContext, dets []detect.Detection) {
	metUpdates.Inc()
	m := r.Model
	s := r.scratchRef()
	r.lastConf = 1
	feats := s.detFeatureRows(dets, m.NomW, m.NomH, m.FPS, ctx.GapFrames)
	if len(r.active) == 0 {
		r.startAll(dets, nil)
		return
	}

	const blocked = 1e6
	maxDisp := r.MaxSpeed*float64(ctx.GapFrames)/float64(m.FPS) + 0.08*float64(m.NomW)
	cost := growMatrix(&s.cost, &s.costBuf, len(r.active), len(dets))
	scored := 0
	for i, tr := range r.active {
		last := tr.track.Dets[len(tr.track.Dets)-1].Box.Center()
		for j, d := range dets {
			if last.Dist(d.Box.Center()) > maxDisp {
				cost[i][j] = blocked
				continue
			}
			scored++
			s.motion = AppendMotionFeatures(s.motion[:0], tr.track.Dets, d, m.NomW, m.NomH)
			p := m.scoreWith(s, tr.hidden, feats[j], nn.Vec(s.motion))
			cost[i][j] = -math.Log(math.Max(p, 1e-9))
		}
	}
	// One accountant charge per association round rather than per scored
	// pair keeps the accountant out of the innermost loop.
	if scored > 0 {
		r.Acct.Add(costmodel.OpTrack, costmodel.TrackerPerAssoc*float64(scored))
	}
	maxCost := -math.Log(r.MinProb)
	assign := s.assign.AssignWithThreshold(cost, maxCost, blocked)

	usedDet := grow(&s.usedDet, len(dets))
	clear(usedDet)
	active := r.active
	remaining := r.active[:0] // in-place filter; reads stay ahead of writes
	for i, tr := range active {
		j := assign[i]
		if j < 0 {
			tr.misses++
			if tr.misses > r.MaxMisses {
				r.done = append(r.done, cloneTrack(&tr.track))
			} else {
				remaining = append(remaining, tr)
			}
			continue
		}
		usedDet[j] = true
		if p := math.Exp(-cost[i][j]); p < r.lastConf {
			r.lastConf = p
		}
		tr.track.Dets = append(tr.track.Dets, dets[j])
		m.GRU.StepInferInto(tr.hidden, tr.hidden, feats[j], &s.nn)
		tr.misses = 0
		remaining = append(remaining, tr)
	}
	// Drop dangling pointers in the filtered-out suffix so dead tracks can
	// be collected.
	for i := len(remaining); i < len(active); i++ {
		active[i] = nil
	}
	r.active = remaining
	r.startAll(dets, usedDet)
}

// startAll opens a track for every unmatched detection (usedDet == nil
// means all detections are unmatched).
func (r *RecurrentTracker) startAll(dets []detect.Detection, usedDet []bool) {
	for j, d := range dets {
		if usedDet == nil || !usedDet[j] {
			r.start(d)
		}
	}
}

// scoreWith is Score evaluated through the tracker scratch: the inputs are
// concatenated into a reused buffer and the matching MLP runs on scratch
// ping-pong buffers. Output is bit-identical to Score's.
func (m *RecurrentModel) scoreWith(s *matchScratch, h, f, motion nn.Vec) float64 {
	in := growVec(&s.in, len(h)+len(f)+len(motion))
	copy(in, h)
	copy(in[len(h):], f)
	copy(in[len(h)+len(f):], motion)
	return m.Match.ApplyWith(&s.nn, in)[0]
}

// start opens a new track. The first detection's feature uses
// t_elapsed = 0, matching how training prefixes begin. The hidden vector
// is retained state owned by the track, drawn from the scratch arena
// (tracks never outlive their tracker's Finish).
func (r *RecurrentTracker) start(d detect.Detection) {
	s := r.scratchRef()
	s.startFeat = AppendDetFeatures(s.startFeat[:0], d, r.Model.NomW, r.Model.NomH, r.Model.FPS, 0)
	h := s.arena.alloc(r.Model.Hidden)
	r.Model.GRU.StepInferInto(h, h, nn.Vec(s.startFeat), &s.nn)
	r.active = append(r.active, &recTrack{
		track:  Track{Dets: []detect.Detection{d}},
		hidden: h,
	})
}

// LastConfidence returns the minimum accepted matching probability of the
// most recent Update (1 if nothing was matched).
func (r *RecurrentTracker) LastConfidence() float64 {
	if r.lastConf == 0 {
		return 1
	}
	return r.lastConf
}

// Finish implements Tracker.
func (r *RecurrentTracker) Finish() []*Track {
	for _, tr := range r.active {
		r.done = append(r.done, cloneTrack(&tr.track))
	}
	r.active = nil
	out := r.done
	r.done = nil
	// All tracks are cloned; nothing references the scratch arena's hidden
	// vectors anymore, so the scratch can recycle.
	putScratch(r.scratch)
	r.scratch = nil
	sort.Slice(out, func(i, j int) bool { return out[i].FirstFrame() < out[j].FirstFrame() })
	for i, t := range out {
		t.ID = i
		t.Category = t.MajorityCategory()
	}
	return out
}
