package track

import (
	"math"
	"sort"

	"otif/internal/costmodel"
	"otif/internal/detect"
)

// Tuning shared by the trackers.
const (
	// blocked is the cost of a pair that can never match; it sits far
	// above every cost ceiling, so the assignment leaves such pairs open.
	blocked = 1e6
	// minIoU is SORT's smallest predicted-box IoU for a match.
	minIoU = 0.05
	// minProb is the learned matchers' smallest matching probability for
	// a match.
	minProb = 0.5
	// maxSpeed (nominal px/s) gates implausible associations for the
	// learned matchers: a detection further from the track's last box than
	// maxSpeed * dt plus a slack term can never match. This mirrors the
	// spatial locality that a learned CNN matcher absorbs from data.
	maxSpeed = 500
)

// online is the association policy the three trackers share. Each Update
// the tracker fills a cost matrix in its own way (costs shapes it); one
// round (associate) then solves the assignment under a cost ceiling,
// extends matched tracks, ages unmatched ones and terminates them after
// MaxMisses misses, and starts a track from every unmatched detection.
// Finish numbers the tracks by first frame. S is the per-track state a
// tracker carries between rounds.
//
// The scratch makes each round allocation-free; it also means a tracker
// instance must be driven by a single goroutine. It is drawn from the
// scratch pool when first needed and released by Finish.
type online[S any] struct {
	// MaxMisses is the number of consecutive processed frames a track may
	// go unmatched before it is terminated.
	MaxMisses int

	active  []*live[S]
	done    []*Track
	scratch *matchScratch
}

// live is an active track and the tracker's state for it.
type live[S any] struct {
	track  Track
	state  S
	misses int
}

// scratchRef returns the tracker's scratch, acquiring one from the pool
// on first use.
func (o *online[S]) scratchRef() *matchScratch {
	if o.scratch == nil {
		o.scratch = getScratch()
	}
	return o.scratch
}

// costs counts the round and shapes its cost matrix: row i is active
// track i, column j is detection j. With no active track there is nothing
// to score and it returns nil.
func (o *online[S]) costs(nDets int) [][]float64 {
	metUpdates.Inc()
	if len(o.active) == 0 {
		return nil
	}
	s := o.scratchRef()
	return growMatrix(&s.cost, &s.costBuf, len(o.active), nDets)
}

// associate runs the round over the filled cost matrix. A track matched to
// detection j at cost c is handed to absorb (if non-nil) before j is
// appended to it; every unmatched detection starts a track whose state is
// start's (the zero state if start is nil).
func (o *online[S]) associate(cost [][]float64, maxCost float64, dets []detect.Detection,
	absorb func(l *live[S], j int, c float64), start func(d detect.Detection) S) {
	var used []bool
	if len(o.active) > 0 {
		s := o.scratchRef()
		assign := s.assign.AssignWithThreshold(cost, maxCost, blocked)
		used = grow(&s.usedDet, len(dets))
		clear(used)
		active := o.active
		remaining := active[:0] // in-place filter; reads stay ahead of writes
		for i, l := range active {
			j := assign[i]
			if j < 0 {
				l.misses++
				if l.misses > o.MaxMisses {
					o.done = append(o.done, cloneTrack(&l.track))
				} else {
					remaining = append(remaining, l)
				}
				continue
			}
			used[j] = true
			if absorb != nil {
				absorb(l, j, cost[i][j])
			}
			l.track.Dets = append(l.track.Dets, dets[j])
			l.misses = 0
			remaining = append(remaining, l)
		}
		// Drop dangling pointers in the filtered-out suffix so dead tracks
		// can be collected.
		clear(active[len(remaining):])
		o.active = remaining
	}
	for j, d := range dets {
		if used != nil && used[j] {
			continue
		}
		l := &live[S]{track: Track{Dets: []detect.Detection{d}}}
		if start != nil {
			l.state = start(d)
		}
		o.active = append(o.active, l)
	}
}

// scoreReachable fills cost for a learned matcher. A detection further
// than reach from a track's last box centre can never match and is
// blocked unscored; every other pair costs -log p, p = prob(l, j). The
// scored pairs are charged to acct in one add per round, which keeps the
// accountant out of the innermost loop.
func (o *online[S]) scoreReachable(cost [][]float64, dets []detect.Detection, reach float64,
	acct *costmodel.Accountant, prob func(l *live[S], j int) float64) {
	scored := 0
	for i, l := range o.active {
		last := l.track.Dets[len(l.track.Dets)-1].Box.Center()
		for j, d := range dets {
			if last.Dist(d.Box.Center()) > reach {
				cost[i][j] = blocked
				continue
			}
			scored++
			cost[i][j] = -math.Log(math.Max(prob(l, j), 1e-9))
		}
	}
	if scored > 0 {
		acct.Add(costmodel.OpTrack, costmodel.TrackerPerAssoc*float64(scored))
	}
}

// reach is scoreReachable's gate for a round gapFrames after the previous
// one: maxSpeed over the elapsed time plus 8% of the frame width.
func reach(gapFrames, fps, nomW int) float64 {
	return maxSpeed*float64(gapFrames)/float64(fps) + 0.08*float64(nomW)
}

// Finish implements Tracker.
func (o *online[S]) Finish() []*Track {
	for _, l := range o.active {
		o.done = append(o.done, cloneTrack(&l.track))
	}
	o.active = nil
	out := o.done
	o.done = nil
	// All tracks are cloned; nothing references the scratch arena's hidden
	// vectors anymore, so the scratch can recycle.
	putScratch(o.scratch)
	o.scratch = nil
	sort.Slice(out, func(i, j int) bool { return out[i].FirstFrame() < out[j].FirstFrame() })
	for i, t := range out {
		t.ID = i
		t.Category = t.MajorityCategory()
	}
	return out
}

func cloneTrack(t *Track) *Track {
	c := &Track{ID: t.ID, Category: t.Category, Dets: make([]detect.Detection, len(t.Dets))}
	copy(c.Dets, t.Dets)
	return c
}
