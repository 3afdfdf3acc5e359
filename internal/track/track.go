// Package track implements OTIF's multi-object trackers: the heuristic
// SORT tracker used to bootstrap theta_best (§3.3), the recurrent
// reduced-rate tracker that is the paper's second core contribution (§3.4),
// and the pairwise (Miris-style GNN) matcher used by the Miris baseline and
// the ablation study. All trackers consume detections produced by the
// detection module at a fixed sampling gap and emit object tracks.
package track

import (
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/obs"
)

// metUpdates counts tracker Update calls across all tracker kinds; the
// handle is pre-registered so the per-frame record is a single atomic add.
var metUpdates = obs.Default.Counter("track.updates")

// Track is a sequence of detections of one unique object.
type Track struct {
	ID       int
	Category string
	Dets     []detect.Detection
}

// FirstFrame returns the frame index of the first detection.
func (t *Track) FirstFrame() int {
	if len(t.Dets) == 0 {
		return -1
	}
	return t.Dets[0].FrameIdx
}

// LastFrame returns the frame index of the last detection.
func (t *Track) LastFrame() int {
	if len(t.Dets) == 0 {
		return -1
	}
	return t.Dets[len(t.Dets)-1].FrameIdx
}

// Path returns the polyline through the detection centers.
func (t *Track) Path() geom.Path {
	p := make(geom.Path, len(t.Dets))
	for i, d := range t.Dets {
		p[i] = d.Box.Center()
	}
	return p
}

// MajorityCategory returns the most frequent detection category of the
// track (tracks inherit their category from their detections). Count
// ties break to the lexicographically smallest category, not map
// iteration order, so repeated runs label tracks identically.
func (t *Track) MajorityCategory() string {
	counts := map[string]int{}
	for _, d := range t.Dets {
		counts[d.Category]++
	}
	best, bestN := "", -1
	for c, n := range counts {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return best
}

// PruneShort removes tracks with fewer than minLen detections. The paper
// prunes length-1 tracks, which mostly correspond to spurious detections.
func PruneShort(tracks []*Track, minLen int) []*Track {
	out := tracks[:0]
	for _, t := range tracks {
		if len(t.Dets) >= minLen {
			out = append(out, t)
		}
	}
	return out
}

// Tracker is the interface shared by all tracking methods: feed it the
// detections of each processed frame in order, then Finish to collect the
// completed tracks.
type Tracker interface {
	// Update ingests the detections of frame frameIdx. gapFrames is the
	// number of native frames since the previously processed frame
	// (equal to the sampling gap during normal execution).
	Update(ctx *FrameContext, dets []detect.Detection)
	// Finish flushes active tracks and returns all tracks, assigning
	// sequential IDs.
	Finish() []*Track
}

// FrameContext carries per-frame information to Tracker.Update.
type FrameContext struct {
	FrameIdx  int
	GapFrames int
}
