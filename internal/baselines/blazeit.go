package baselines

import (
	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/dataset"
)

// BlazeIt is our implementation of the BlazeIt video query engine (Kang et
// al., CIDR 2019) for frame-level limit queries: a cheap query-specific
// proxy model scores every frame at 64x64 input resolution (pre-processing),
// and query execution applies the full object detector on frames from
// highest to lowest score until the desired output cardinality is reached.
// Because the proxy is trained per query, its pre-processing pass repeats
// for every new query — unlike OTIF's reusable tracks (§4.2).
type BlazeIt struct {
	// ProxyW and ProxyH are the proxy input resolution (64x64 per the
	// paper).
	ProxyW, ProxyH int
}

// NewBlazeIt returns the BlazeIt baseline.
func NewBlazeIt() *BlazeIt { return &BlazeIt{ProxyW: 64, ProxyH: 64} }

// Name identifies the method.
func (b *BlazeIt) Name() string { return "BlazeIt" }

// RunFrameQuery executes one frame-level limit query over the clips.
//
// Pre-processing decodes every frame at the proxy resolution and derives a
// per-frame *query-specific* score from the lowest-resolution segmentation
// proxy model (BlazeIt trains a specialized proxy per query; QueryScore
// specializes the cell scores to the predicate). Query execution then
// applies the detector in score order, checks the predicate on the
// detections, and enforces the output separation. Per the paper's
// measurement protocol, query time counts detector inference only
// (random-access decode is excluded).
func (b *BlazeIt) RunFrameQuery(sys *core.System, q FrameQuery, clips []*dataset.ClipTruth) FrameLevelResult {
	acctPre := costmodel.NewAccountant()
	pm := sys.Proxies[len(sys.Proxies)-1]

	var frames []scored
	for ci, ct := range clips {
		for f := 0; f < ct.Clip.Len(); f++ {
			acctPre.Add(costmodel.OpDecode, costmodel.DecodeCost(b.ProxyW, b.ProxyH))
			acctPre.Add(costmodel.OpProxy, costmodel.ProxyCost(b.ProxyW, b.ProxyH))
			frame := ct.Clip.Frame(f)
			scores := pm.Score(frame, sys.Background, costmodel.NewAccountant())
			frames = append(frames, scored{frameRef{ci, f},
				QueryScore(q, scores, sys.DS.Cfg.NomW, sys.DS.Cfg.NomH)})
		}
	}

	// Query execution: detector in score order until limit reached.
	acctQ := costmodel.NewAccountant()
	apps := 0
	check := detectorCheck(sys.Detector(sys.Best, acctQ), clips, q, &apps)
	outputs := selectSeparated(ranked(frames), q.Limit, sys.Ctx().SepFrames(q.MinSepSec), check)

	return FrameLevelResult{
		PreprocessTime: acctPre.Total(),
		QueryTime:      acctQ.Get(costmodel.OpDetect),
		Accuracy:       measureAccuracy(clips, q, outputs),
		Returned:       len(outputs),
		DetectorApps:   apps,
	}
}
