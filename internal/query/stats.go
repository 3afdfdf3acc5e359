package query

import (
	"sort"

	"otif/internal/geom"
)

// SpeedStats summarizes a track's motion in nominal pixels per second.
type SpeedStats struct {
	Mean float64
	Max  float64
	P50  float64
}

// TrackSpeed computes per-segment speeds over a track and summarizes them.
// Tracks with fewer than two detections have zero stats.
func TrackSpeed(t *Track, fps int) SpeedStats {
	scratch := make([]float64, 0, max(len(t.Dets)-1, 0))
	return TrackSpeedScratch(t, fps, &scratch)
}

// TrackSpeedScratch is TrackSpeed with the per-segment speeds kept in
// *scratch, so summarizing many tracks allocates only when one is longer
// than every track before it.
func TrackSpeedScratch(t *Track, fps int, scratch *[]float64) SpeedStats {
	n := len(t.Dets)
	if n < 2 || fps <= 0 {
		return SpeedStats{}
	}
	speeds := (*scratch)[:0]
	for i := 1; i < n; i++ {
		dt := float64(t.Dets[i].FrameIdx-t.Dets[i-1].FrameIdx) / float64(fps)
		if dt <= 0 {
			continue
		}
		d := t.Dets[i].Box.Center().Dist(t.Dets[i-1].Box.Center())
		speeds = append(speeds, d/dt)
	}
	*scratch = speeds
	if len(speeds) == 0 {
		return SpeedStats{}
	}
	var sum, maxV float64
	for _, s := range speeds {
		sum += s
		if s > maxV {
			maxV = s
		}
	}
	sort.Float64s(speeds)
	return SpeedStats{
		Mean: sum / float64(len(speeds)),
		Max:  maxV,
		P50:  speeds[len(speeds)/2],
	}
}

// Speeding returns tracks whose median speed exceeds the threshold
// (nominal px/sec) — the "find speeding cars" exploratory query.
func Speeding(tracks []*Track, ctx Context, threshold float64) []*Track {
	var out []*Track
	for _, t := range tracks {
		if TrackSpeed(t, ctx.FPS).P50 >= threshold {
			out = append(out, t)
		}
	}
	return out
}

// DwellTime returns, per track of the category, the number of seconds the
// track's interpolated box center stays inside the region. This answers
// queries like "how long do cars wait in the junction box".
func DwellTime(tracks []*Track, cat string, region geom.Polygon, ctx Context) map[int]float64 {
	out := map[int]float64{}
	if ctx.FPS <= 0 {
		return out
	}
	for _, t := range tracks {
		if cat != "" && t.Category != cat {
			continue
		}
		frames := 0
		for f := t.FirstFrame(); f <= t.LastFrame(); f++ {
			if b, ok := t.BoxAt(f); ok && region.Contains(b.Center()) {
				frames++
			}
		}
		if frames > 0 {
			out[t.ID] = float64(frames) / float64(ctx.FPS)
		}
	}
	return out
}

// CoOccurrences counts, per frame, how many distinct pairs of category
// objects are simultaneously visible within dist of each other, and
// returns the total over the clip — a proximity analytics primitive
// (e.g. near-miss counting). Each box's centre is computed once per frame,
// not once per pair. This linear scan is the reference the indexed store's
// sweep is compared against.
func CoOccurrences(tracks []*Track, cat string, dist float64, ctx Context) int {
	total := 0
	var centers []geom.Point
	for f := 0; f < ctx.Frames; f++ {
		boxes, _ := VisibleBoxes(tracks, cat, f)
		if len(boxes) < 2 {
			continue // no pair to test
		}
		centers = centers[:0]
		for _, b := range boxes {
			centers = append(centers, b.Center())
		}
		for i := range centers {
			for j := i + 1; j < len(centers); j++ {
				if centers[i].Dist(centers[j]) <= dist {
					total++
				}
			}
		}
	}
	return total
}
