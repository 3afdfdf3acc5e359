package baselines

import (
	"math/rand"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/dataset"
	"otif/internal/nn"
)

// TASTI is our implementation of the task-agnostic index (Kang et al.,
// 2020): pre-processing runs a feature extractor over *every* frame at
// 224x224 input resolution, producing query-agnostic embeddings that can
// be reused across queries. Per query, a small scoring model is trained on
// a handful of detector-labeled frames, used to rank all frames, and the
// detector is applied in score order until the limit is reached. The
// embedding pass is the most expensive pre-processing of the three methods
// (Table 3), but — unlike BlazeIt's proxy — it never repeats.
type TASTI struct {
	// EmbedW and EmbedH are the embedding extractor input resolution
	// (224x224 per the paper).
	EmbedW, EmbedH int
	// LabelFrames is the number of detector-labeled frames used to train
	// the per-query scoring model.
	LabelFrames int
}

// NewTASTI returns the TASTI baseline.
func NewTASTI() *TASTI { return &TASTI{EmbedW: 224, EmbedH: 224, LabelFrames: 48} }

// Name identifies the method.
func (t *TASTI) Name() string { return "TASTI" }

// Embeddings computes the query-agnostic per-frame embeddings (the
// pre-processing pass), charging embedding and decode cost. The embedding
// of a frame is the cell-score vector of a mid-resolution segmentation
// proxy model — a feature map summarizing which parts of the frame likely
// contain objects, the role TASTI's learned embeddings play.
func (t *TASTI) Embeddings(sys *core.System, clips []*dataset.ClipTruth) ([][]nn.Vec, float64) {
	acct := costmodel.NewAccountant()
	pm := sys.Proxies[len(sys.Proxies)/2]
	out := make([][]nn.Vec, len(clips))
	for ci, ct := range clips {
		out[ci] = make([]nn.Vec, ct.Clip.Len())
		for f := 0; f < ct.Clip.Len(); f++ {
			acct.Add(costmodel.OpDecode, costmodel.DecodeCost(t.EmbedW, t.EmbedH))
			acct.Add(costmodel.OpEmbed, costmodel.EmbedCost(t.EmbedW, t.EmbedH))
			frame := ct.Clip.Frame(f)
			scores := pm.Score(frame, sys.Background, costmodel.NewAccountant())
			out[ci][f] = nn.Vec(scores)
		}
	}
	return out, acct.Total()
}

// RunFrameQuery executes one frame-level limit query given precomputed
// embeddings and the time they cost (pass nil, 0 to compute them here, as
// Table 3 does for each query).
func (t *TASTI) RunFrameQuery(sys *core.System, q FrameQuery, clips []*dataset.ClipTruth,
	embeddings [][]nn.Vec, preprocessTime float64) FrameLevelResult {
	if embeddings == nil {
		embeddings, preprocessTime = t.Embeddings(sys, clips)
	}

	acctQ := costmodel.NewAccountant()
	apps := 0
	check := detectorCheck(sys.Detector(sys.Best, acctQ), clips, q, &apps)

	// Train the query-specific scoring model on LabelFrames frames spread
	// across the set, labeled by applying the detector (these detector
	// applications are part of query time).
	rng := rand.New(rand.NewSource(31))
	dim := len(embeddings[0][0])
	scorer := nn.NewLogReg(dim, rng)
	var xs []nn.Vec
	var labels []float64
	total := 0
	for _, ct := range clips {
		total += ct.Clip.Len()
	}
	step := total / t.LabelFrames
	if step < 1 {
		step = 1
	}
	k := 0
	for ci, ct := range clips {
		for f := 0; f < ct.Clip.Len(); f++ {
			if k%step == 0 {
				xs = append(xs, embeddings[ci][f])
				if check(frameRef{ci, f}) {
					labels = append(labels, 1)
				} else {
					labels = append(labels, 0)
				}
			}
			k++
		}
	}
	scorer.TrainEpochs(xs, labels, 30, 0.3, 1e-4, rng)

	// Rank every frame by the scorer and verify in that order.
	var frames []scored
	for ci := range clips {
		for f, emb := range embeddings[ci] {
			frames = append(frames, scored{frameRef{ci, f}, scorer.Predict(emb)})
		}
	}
	outputs := selectSeparated(ranked(frames), q.Limit, sys.Ctx().SepFrames(q.MinSepSec), check)

	return FrameLevelResult{
		PreprocessTime: preprocessTime,
		QueryTime:      acctQ.Get(costmodel.OpDetect),
		Accuracy:       measureAccuracy(clips, q, outputs),
		Returned:       len(outputs),
		DetectorApps:   apps,
	}
}
