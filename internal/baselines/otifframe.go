package baselines

import (
	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/dataset"
	"otif/internal/query"
)

// OTIFFrames answers frame-level limit queries by post-processing the
// tracks OTIF extracted in its single pre-processing pass. The tracks are
// query-agnostic, so additional queries cost only the (milliseconds-scale)
// track scan — the central claim of §4.2.
type OTIFFrames struct {
	tracksPerClip [][]*query.Track
	preprocess    float64
}

// NewOTIFFrames answers from one pre-processing pass: the run of a tuned
// configuration (the fastest within 5% of best track-query accuracy) over
// the clips the queries ask about. Its runtime is the pre-processing time
// every query reports.
func NewOTIFFrames(res *core.SetResult) *OTIFFrames {
	return &OTIFFrames{tracksPerClip: res.PerClip, preprocess: res.Runtime}
}

// RunFrameQuery answers one limit query from the stored tracks. Query cost
// is the track-scan cost: a per-(frame, visible-track) charge that lands
// around a simulated second per query on paper-sized sets, matching the
// sub-second to second-scale latencies of Table 3.
func (o *OTIFFrames) RunFrameQuery(sys *core.System, q FrameQuery, clips []*dataset.ClipTruth) FrameLevelResult {
	acct := costmodel.NewAccountant()
	ctx := sys.Ctx()
	minSep := ctx.SepFrames(q.MinSepSec)

	// Gather per-clip matches ranked by the minimum duration of their
	// visible tracks (§4.2), then interleave clips preserving rank order.
	var cands []scored
	for ci, tracks := range o.tracksPerClip {
		ctx.Frames = clips[ci].Clip.Len()
		acct.Add(costmodel.OpQuery, perFrameScanCost*float64(ctx.Frames)*float64(1+len(tracks)))
		for _, m := range query.LimitQuery(tracks, q.Category, q.Pred, ctx, q.Limit, minSep) {
			cands = append(cands, scored{frameRef{ci, m.FrameIdx}, float64(m.MinDuration)})
		}
	}
	outputs := selectSeparated(ranked(cands), q.Limit, minSep, nil)

	return FrameLevelResult{
		PreprocessTime: o.preprocess,
		QueryTime:      acct.Total(),
		Accuracy:       measureAccuracy(clips, q, outputs),
		Returned:       len(outputs),
	}
}

// perFrameScanCost is the simulated cost of evaluating one frame of one
// track during query post-processing (pure CPU work over in-memory
// tracks).
const perFrameScanCost = 2e-7
