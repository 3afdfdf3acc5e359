package track

import (
	"math"
	"math/rand"
	"sort"

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

// PairTracker applies a PairModel online, forming tracks as chains of
// frame-to-frame matches.
type PairTracker struct {
	Model     *PairModel
	MinProb   float64
	MaxMisses int
	MaxSpeed  float64
	Acct      *costmodel.Accountant

	active []*pairTrack
	done   []*Track

	// scratch makes each Update round allocation-free; it also means a
	// tracker instance must be driven by a single goroutine. It is drawn
	// from the scratch pool on first Update and released by Finish.
	scratch *matchScratch
}

type pairTrack struct {
	track  Track
	misses int
}

// NewPairTracker wraps a trained pair model with default inference
// settings.
func NewPairTracker(model *PairModel, acct *costmodel.Accountant) *PairTracker {
	return &PairTracker{Model: model, MinProb: 0.5, MaxMisses: 2, MaxSpeed: 500, Acct: acct}
}

// Update implements Tracker.
func (p *PairTracker) Update(ctx *FrameContext, dets []detect.Detection) {
	metUpdates.Inc()
	if len(p.active) == 0 {
		for _, d := range dets {
			p.start(d)
		}
		return
	}
	m := p.Model
	if p.scratch == nil {
		p.scratch = getScratch()
	}
	s := p.scratch
	const blocked = 1e6
	maxDisp := p.MaxSpeed*float64(ctx.GapFrames)/float64(m.FPS) + 0.08*float64(m.NomW)
	cost := growMatrix(&s.cost, &s.costBuf, len(p.active), len(dets))
	scored := 0
	for i, tr := range p.active {
		last := tr.track.Dets[len(tr.track.Dets)-1]
		for j, d := range dets {
			if last.Box.Center().Dist(d.Box.Center()) > maxDisp {
				cost[i][j] = blocked
				continue
			}
			scored++
			s.featBuf = AppendPairFeatures(s.featBuf[:0], last, d, m.NomW, m.NomH, m.FPS, ctx.GapFrames)
			prob := m.Match.ApplyWith(&s.nn, nn.Vec(s.featBuf))[0]
			cost[i][j] = -math.Log(math.Max(prob, 1e-9))
		}
	}
	// One accountant charge per association round rather than per scored
	// pair keeps the accountant out of the innermost loop.
	if scored > 0 {
		p.Acct.Add(costmodel.OpTrack, costmodel.TrackerPerAssoc*float64(scored))
	}
	assign := s.assign.AssignWithThreshold(cost, -math.Log(p.MinProb), blocked)

	usedDet := grow(&s.usedDet, len(dets))
	clear(usedDet)
	active := p.active
	remaining := p.active[:0] // in-place filter; reads stay ahead of writes
	for i, tr := range active {
		j := assign[i]
		if j < 0 {
			tr.misses++
			if tr.misses > p.MaxMisses {
				p.done = append(p.done, cloneTrack(&tr.track))
			} else {
				remaining = append(remaining, tr)
			}
			continue
		}
		usedDet[j] = true
		tr.track.Dets = append(tr.track.Dets, dets[j])
		tr.misses = 0
		remaining = append(remaining, tr)
	}
	for i := len(remaining); i < len(active); i++ {
		active[i] = nil
	}
	p.active = remaining
	for j, d := range dets {
		if !usedDet[j] {
			p.start(d)
		}
	}
}

func (p *PairTracker) start(d detect.Detection) {
	p.active = append(p.active, &pairTrack{track: Track{Dets: []detect.Detection{d}}})
}

// Finish implements Tracker.
func (p *PairTracker) Finish() []*Track {
	for _, tr := range p.active {
		p.done = append(p.done, cloneTrack(&tr.track))
	}
	p.active = nil
	out := p.done
	p.done = nil
	putScratch(p.scratch)
	p.scratch = nil
	sort.Slice(out, func(i, j int) bool { return out[i].FirstFrame() < out[j].FirstFrame() })
	for i, t := range out {
		t.ID = i
		t.Category = t.MajorityCategory()
	}
	return out
}
