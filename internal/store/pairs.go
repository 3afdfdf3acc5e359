package store

import "fmt"

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

// planPairColumn plans the category's column: what it would be charged
// and how to build it. A count-only sweep (pairCount) sizes it from the
// interval index, so a refusal interpolates nothing and a build allocates
// the distances once, at their exact size; one pair walk per clip then
// fills them.
func (sg *Segment) planPairColumn(cat string) (int64, func() *pairColumn) {
	col := &pairColumn{off: make([]int, len(sg.clips)+1)}
	count := sg.newSweep(false)
	for i := range sg.clips {
		count.reset(&sg.clips[i], cat, nil)
		col.off[i+1] = col.off[i] + count.pairCount(sg.ctx.Frames)
	}
	count.flush()
	n := col.off[len(sg.clips)]
	return resultBytes(col) + 8*int64(n), func() *pairColumn {
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
// through the result cache's one gate for derived columns (cachedColumn),
// or nil when CoOccurrences should walk the sweep.
func (sh *Sharded) cachedPairColumn(sg *Segment, cat string) *pairColumn {
	return cachedColumn(sh, sg, fmt.Sprintf("pairs|%#v", cat), func() (int64, func() *pairColumn) { return sg.planPairColumn(cat) })
}
