package store

import "otif/internal/query"

// rankColumn is one sealed segment's ranked-candidate column for one
// category and frame predicate: per clip, what query.RankLimit leaves, every
// frame the predicate matches with the minimum remaining duration of its
// matched tracks, best first. The ranking depends on neither a limit nor a
// separation, so query.PickLimit over a clip's part answers LimitQuery for
// any of them: the same step on the same candidates as an uncached call.
type rankColumn struct {
	cands []query.LimitCand // every clip's ranked candidates, end to end
	off   []int             // clip c's are cands[off[c]:off[c+1]]
}

// planRankColumn plans the column for (cat, pred). A clip yields at most
// one candidate a frame, so 8 bytes a frame and clip bound the column
// before anything is swept; a build allocates the candidates once, at that
// bound, which is what the column is charged, and ranks each clip into
// them as an uncached call does.
func (sg *Segment) planRankColumn(cat string, pred query.FramePredicate) (int64, func() *rankColumn) {
	col := &rankColumn{off: make([]int, len(sg.clips)+1)}
	n := max(sg.ctx.Frames, 0) * len(sg.clips)
	return resultBytes(col) + 8*int64(n), func() *rankColumn {
		cands := make([]query.LimitCand, 0, n)
		sw := sg.newLimitSweep(pred)
		sg.limitClips(&sw, cat, pred, func(i int) {
			cands = query.RankLimit(&sw, pred, sg.ctx, cands)
			col.off[i+1] = len(cands)
		})
		col.cands = cands
		return col
	}
}

// pick answers LimitQuery(cat, pred, limit, minSepFrames) from the
// segment's column for (cat, pred): no sweep and no sort, only the at most
// limit point lookups per clip that PickLimit makes for the boxes.
func (sg *Segment) pick(col *rankColumn, cat string, pred query.FramePredicate, limit, minSepFrames int) [][]query.FrameMatch {
	metQueries.Inc()
	out := make([][]query.FrameMatch, len(sg.clips))
	var sw sweep // point lookups only: no active list
	sg.limitClips(&sw, cat, pred, func(i int) {
		out[i] = query.PickLimit(&sw, pred, col.cands[col.off[i]:col.off[i+1]], limit, minSepFrames)
	})
	return out
}

// cachedRankColumn returns a sealed segment's ranked-candidate column for
// (cat, pred) through the result cache's one gate for derived columns
// (cachedColumn), or nil when LimitQuery should sweep.
func (sh *Sharded) cachedRankColumn(sg *Segment, cat string, pred query.FramePredicate) *rankColumn {
	return cachedColumn(sh, sg, ranksKey(cat, pred), func() (int64, func() *rankColumn) { return sg.planRankColumn(cat, pred) })
}
