package store

import (
	"math"

	"otif/internal/query"
)

// runColumn is one sealed segment's count-run column for one category: per
// clip, the runs of frames on which the category's visible count holds, as
// (first frame, count) pairs over [0, Frames), from one count-only sweep.
// Neighbouring runs differ in count, so a clip has at most 2·tracks+1 of
// them: the count changes only where one of the category's tracks starts
// or one frame past where it ends. Replayed through runReplay, two columns
// are the count sources query.BusyFramesFrom reads, the same core the sweep
// and the scan answer through, so BusyFrames answers from them for any
// (nA, nB) without a sweep.
type runColumn struct {
	runs []countRun // every clip's runs, end to end
	off  []int      // clip c's are runs[off[c]:off[c+1]]
}

// countRun is the first frame of a run and the visible count on it.
type countRun struct{ start, n int32 }

// planRunColumn plans the category's column. The category's track counts
// bound it (2·tracks+1 runs a clip) before anything is swept; a build
// allocates the runs once, at that bound, and one count-only sweep per
// clip fills them, a run at a time.
func (sg *Segment) planRunColumn(cat string) (int64, func() *runColumn) {
	col := &runColumn{off: make([]int, len(sg.clips)+1)}
	bound := 0
	for i := range sg.clips {
		tracks := len(sg.clips[i].tracks)
		if cat != "" {
			tracks = len(sg.clips[i].cats[cat])
		}
		bound += 2*tracks + 1
	}
	return resultBytes(col) + 8*int64(bound), func() *runColumn {
		runs := make([]countRun, 0, bound)
		sw := sg.newSweep(false)
		for i := range sg.clips {
			sw.reset(&sg.clips[i], cat, nil)
			for f := 0; f < sg.ctx.Frames; {
				n, next := sw.Advance(f)
				if len(runs) == col.off[i] || runs[len(runs)-1].n != int32(n) {
					runs = append(runs, countRun{start: int32(f), n: int32(n)})
				}
				f = min(next, sg.ctx.Frames)
			}
			col.off[i+1] = len(runs)
		}
		sw.flush()
		col.runs = runs
		return col
	}
}

// runReplay is a query.CountSource over one clip's count runs: Advance
// steps forward through the runs, and a run's count holds up to the next
// run's first frame (past the last run, as far as the clip goes).
type runReplay struct {
	runs []countRun
	i    int // the run of the frame last advanced to
}

// reset points the replay at the start of a clip's runs.
func (r *runReplay) reset(runs []countRun) { r.runs, r.i = runs, 0 }

// Advance implements query.CountSource.
func (r *runReplay) Advance(f int) (int, int) {
	for r.i+1 < len(r.runs) && int(r.runs[r.i+1].start) <= f {
		r.i++
	}
	next := math.MaxInt
	if r.i+1 < len(r.runs) {
		next = int(r.runs[r.i+1].start)
	}
	return int(r.runs[r.i].n), next
}

// busyFromRuns answers BusyFrames(catA, nA, catB, nB) from the segment's
// count-run columns for catA and catB: query.BusyFramesFrom over two
// replays, with no sweep and nothing allocated per frame or run beyond the
// answer.
func (sg *Segment) busyFromRuns(colA *runColumn, nA int, colB *runColumn, nB int) [][]int {
	metQueries.Inc()
	out := make([][]int, len(sg.clips))
	var a, b runReplay
	for i := range out {
		a.reset(colA.runs[colA.off[i]:colA.off[i+1]])
		b.reset(colB.runs[colB.off[i]:colB.off[i+1]])
		out[i] = query.BusyFramesFrom(&a, nA, &b, nB, sg.ctx)
	}
	return out
}

// cachedRunColumn returns a sealed segment's count-run column for cat
// through the result cache's one gate for derived columns (cachedColumn),
// or nil when BusyFrames should sweep.
func (sh *Sharded) cachedRunColumn(sg *Segment, cat string) *runColumn {
	return cachedColumn(sh, sg, runsKey(cat), func() (int64, func() *runColumn) { return sg.planRunColumn(cat) })
}
