package store

import "fmt"

// columnShare bounds one pair-distance column to cacheBudget/columnShare
// bytes (4 MiB). A column is charged against the budget that also holds the
// answers it saves, and it costs about one and a half pair walks to build,
// so it only pays while it stays held: a sixteenth keeps one category's
// columns over a paper-scale archive (3.2 MB a segment of 8 clips at 33
// pairs a frame) beside the answers, and turns away a column that would
// push out most of the cache at once and be pushed out in turn before its
// next use.
const columnShare = 16

// pairColumn is one sealed segment's pair-distance column for one
// category: per clip, the centre distance of every pair of category tracks
// visible together, on every frame — exactly the float64 values the pair
// walk (sweep.pairs) compares with CoOccurrences' dist. Counting the ones
// that are at most dist is CoOccurrences' answer for any dist: the same
// comparison on the same numbers, the order of which a count does not
// depend on, and a NaN never counts.
type pairColumn struct {
	dists []float64 // every clip's distances, end to end
	off   []int     // clip c's are dists[off[c]:off[c+1]]
}

// count answers CoOccurrences(cat, dist) from the column.
func (p *pairColumn) count(dist float64) []int {
	metQueries.Inc()
	out := make([]int, len(p.off)-1)
	for c := range out {
		n := 0
		for _, d := range p.dists[p.off[c]:p.off[c+1]] {
			if d <= dist {
				n++
			}
		}
		out[c] = n
	}
	return out
}

// buildPairColumn builds the category's column, or returns nil when it
// would be charged more than maxBytes. A count-only sweep (pairCount) sizes
// it from the interval index, so a refusal interpolates nothing and a build
// allocates the distances once, at their exact size; one pair walk per
// clip then fills them.
func (sg *Segment) buildPairColumn(cat string, maxBytes int64) *pairColumn {
	col := &pairColumn{off: make([]int, len(sg.clips)+1)}
	count := sg.newSweep(false)
	for i := range sg.clips {
		count.reset(&sg.clips[i], cat, nil)
		col.off[i+1] = col.off[i] + count.pairCount(sg.ctx.Frames)
	}
	count.flush()
	n := col.off[len(sg.clips)]
	if resultBytes(col)+8*int64(n) > maxBytes {
		return nil
	}
	walk := sg.newSweep(true)
	walk.dists = make([]float64, 0, n)
	for i := range sg.clips {
		walk.reset(&sg.clips[i], cat, nil)
		walk.pairs(sg.ctx.Frames, 0)
	}
	walk.flush()
	col.dists = walk.dists
	return col
}

// pairCount is how many distances sweep.pairs measures on one clip: per
// run of frames with n tracks visible, n(n-1)/2 a frame. It reads only the
// interval index; the sweep must not walk.
func (sw *sweep) pairCount(frames int) int {
	total := 0
	for f := 0; f < frames; {
		n, next := sw.Advance(f)
		end := min(next, frames)
		total += (end - f) * (n * (n - 1) / 2)
		f = end
	}
	return total
}

// cachedPairColumn returns a sealed segment's pair-distance column for cat
// from the result cache, built by the first call that asks for it, or nil
// when CoOccurrences should walk the sweep: for a segment that is not
// sealed or not cached, and when the column would be charged more than the
// cache's column limit. A refusal is cached as a nil column, so its size
// is counted once. Concurrent first calls share one build (Cache.Get).
func (sh *Sharded) cachedPairColumn(sg *Segment, cat string) *pairColumn {
	c := sh.cache
	if !sg.sealed || c == nil {
		return nil
	}
	return c.Get(sh.dataset, sg.id, fmt.Sprintf("pairs|%#v", cat), func() any { return sg.buildPairColumn(cat, c.columnMax) }).(*pairColumn)
}
