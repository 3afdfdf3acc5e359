package baselines

import (
	"context"
	"math"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/query"
	"otif/internal/track"
	"otif/internal/video"
)

// Miris is our implementation of the MIRIS video query optimizer (Bastani
// et al., SIGMOD 2020): pairwise (GNN-style) tracking at reduced sampling
// rates, followed by a query-driven refinement stage that decodes and
// processes *additional* frames to recover accurate track endpoints. The
// refinement stage is what makes Miris costly when extracting all tracks —
// and since it is query-driven, its execution repeats for every query
// (QueryFraction = 1), which is where OTIF's 25x five-query speedup comes
// from (Table 2).
type Miris struct {
	// Gaps are the candidate base sampling gaps (Miris' error tolerance
	// knob maps to how aggressively it can reduce the rate).
	Gaps []int
}

// NewMiris returns the Miris baseline with its standard candidate gaps.
// Gap 1 is the naive fallback configuration that processes every frame —
// the paper notes Miris, Chameleon, NoScope and CaTDet all share it as
// their slowest, most accurate point (§4.1).
func NewMiris() *Miris { return &Miris{Gaps: []int{1, 2, 4, 8, 16}} }

// Name implements TrackMethod.
func (m *Miris) Name() string { return "Miris" }

// Tune implements TrackMethod: each candidate is a base sampling gap; every
// candidate applies endpoint refinement by processing extra frames.
func (m *Miris) Tune(sys *core.System, metric core.Metric) []Candidate {
	var out []Candidate
	for _, gap := range m.Gaps {
		c := newCandidate(sys, metric, func(ctx context.Context, clip *video.Clip, acct *costmodel.Accountant) []*query.Track {
			return m.runClip(ctx, sys, gap, clip, acct)
		})
		c.QueryFraction = 1
		out = append(out, c)
	}
	return out
}

// runClip tracks the clip at the base gap with the pairwise matcher, then
// refines each track's start and end by decoding intermediate frames and
// detecting in a window around the extrapolated position, halving the
// lookback gap until the entry/exit frame is pinned down. It runs in the
// run.clip span RunClips opened, and ctx bounds its decode-ahead.
func (m *Miris) runClip(ctx context.Context, sys *core.System, gap int, clip *video.Clip, acct *costmodel.Accountant) []*query.Track {
	cfg := core.Config{
		Arch:     sys.Best.Arch,
		DetScale: sys.Best.DetScale,
		DetConf:  sys.Best.DetConf,
		Gap:      gap,
		Tracker:  core.TrackerPair,
	}
	tracks := sys.TrackClip(ctx, cfg, clip, acct, nil)
	detector := sys.Detector(cfg, acct)
	for _, t := range tracks {
		m.refineEnd(detector, clip, t, acct, false)
		m.refineEnd(detector, clip, t, acct, true)
	}
	return core.StoredTracks(tracks)
}

// refineEnd extends one end of a track by processing additional frames:
// starting half a gap beyond the terminal detection, it decodes the frame,
// runs the detector in a window around the velocity-extrapolated box, and
// keeps stepping outward (halving on misses) until the object is no longer
// found or the clip boundary is reached.
func (m *Miris) refineEnd(detector *detect.Detector, clip *video.Clip, t *track.Track, acct *costmodel.Accountant, forward bool) {
	if len(t.Dets) < 2 {
		return
	}
	step := -1
	terminal := t.Dets[0]
	neighbor := t.Dets[1]
	if forward {
		step = 1
		terminal = t.Dets[len(t.Dets)-1]
		neighbor = t.Dets[len(t.Dets)-2]
	}
	dt := float64(terminal.FrameIdx - neighbor.FrameIdx)
	if dt == 0 {
		return
	}
	v := terminal.Box.Center().Sub(neighbor.Box.Center()).Scale(1 / dt)

	cur := terminal
	stride := 4
	for iter := 0; iter < 12; iter++ {
		idx := cur.FrameIdx + step*stride
		if idx < 0 || idx >= clip.Len() {
			if stride == 1 {
				break
			}
			stride /= 2
			continue
		}
		// Decode the extra frame (this is the cost Miris pays that OTIF's
		// cluster-based refinement avoids).
		acct.Add(costmodel.OpDecode, costmodel.DecodeCost(detector.Cfg.Width, detector.Cfg.Height))
		frame := clip.Frame(idx)
		d := float64(idx - cur.FrameIdx)
		pred := cur.Box.Translate(v.X*d, v.Y*d)
		win := geom.Rect{
			X: pred.X - pred.W, Y: pred.Y - pred.H,
			W: pred.W * 3, H: pred.H * 3,
		}.Clip(frame.Bounds())
		if win.Empty() {
			break
		}
		dets := detector.DetectWindows(frame, idx, []geom.Rect{win})
		best := -1
		bestDist := math.Inf(1)
		for di, det := range dets {
			if dist := det.Box.Center().Dist(pred.Center()); dist < bestDist {
				bestDist = dist
				best = di
			}
		}
		if best >= 0 && bestDist < pred.W*1.5 {
			cur = dets[best]
			if forward {
				t.Dets = append(t.Dets, cur)
			} else {
				t.Dets = append([]detect.Detection{cur}, t.Dets...)
			}
			continue
		}
		if stride == 1 {
			break
		}
		stride /= 2
	}
}
