// Package proxy implements OTIF's segmentation proxy model (§3.3 of the
// paper). A proxy model inputs a video frame at a low resolution and scores
// every 32x32 (nominal) cell of the frame with the likelihood that the cell
// intersects at least one object detection. Positive cells after
// thresholding by B_proxy are grouped into rectangular windows drawn from a
// small fixed set of window sizes W, and the object detector runs only
// inside those windows, falling back to the whole frame when that is
// cheaper.
//
// The paper's five-layer segmentation CNN is replaced by per-cell logistic
// regression over cell brightness statistics (see DESIGN.md §2); models are
// trained at five input resolutions on the detections of the best-accuracy
// configuration theta_best, and the input resolution and threshold are left
// to the tuner, exactly as in the paper.
package proxy

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"otif/internal/costmodel"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/nn"
	"otif/internal/obs"
	"otif/internal/video"
)

// metInvocations counts proxy Score calls; the handle is pre-registered so
// the per-frame record is a single atomic add.
var metInvocations = obs.Default.Counter("proxy.invocations")

// CellSize is the nominal pixel size of one proxy output cell.
const CellSize = 32

// featuresPerCell is the dimensionality of the per-cell feature vector.
const featuresPerCell = 4

// Grid is a boolean occupancy grid over the frame's 32x32 cells.
type Grid struct {
	W, H int
	Pos  []bool

	pos []int // ThresholdInto's positive-cell list, reused
}

// GridDims returns the cell-grid dimensions for a nominal frame size.
func GridDims(nomW, nomH int) (w, h int) {
	return (nomW + CellSize - 1) / CellSize, (nomH + CellSize - 1) / CellSize
}

// NewGrid allocates an empty grid for a nominal frame size.
func NewGrid(nomW, nomH int) *Grid {
	w, h := GridDims(nomW, nomH)
	return &Grid{W: w, H: h, Pos: make([]bool, w*h)}
}

// At reports whether cell (x, y) is positive.
func (g *Grid) At(x, y int) bool { return g.Pos[y*g.W+x] }

// Set marks cell (x, y).
func (g *Grid) Set(x, y int, v bool) { g.Pos[y*g.W+x] = v }

// Count returns the number of positive cells.
func (g *Grid) Count() int {
	n := 0
	for _, p := range g.Pos {
		if p {
			n++
		}
	}
	return n
}

// CellRect returns the nominal-coordinate rectangle of cell (x, y).
func CellRect(x, y int) geom.Rect {
	return geom.Rect{X: float64(x * CellSize), Y: float64(y * CellSize), W: CellSize, H: CellSize}
}

// TruthGrid marks every cell intersecting one of the detection boxes; it is
// both the training label (from theta_best detections) and the "perfect
// proxy" assumption used when selecting window sizes.
func TruthGrid(nomW, nomH int, boxes []geom.Rect) *Grid {
	g := NewGrid(nomW, nomH)
	for _, b := range boxes {
		x0 := min(max(int(b.X)/CellSize, 0), g.W-1)
		y0 := min(max(int(b.Y)/CellSize, 0), g.H-1)
		x1 := min(max(int(math.Ceil(b.MaxX()-1e-9))/CellSize, 0), g.W-1)
		y1 := min(max(int(math.Ceil(b.MaxY()-1e-9))/CellSize, 0), g.H-1)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				g.Set(x, y, true)
			}
		}
	}
	return g
}

// Model is one trained proxy model at a fixed input resolution.
//
// Score caches its outputs under the model's identity, so the weights in
// LR may change only through Train, which issues a new identity. A Model
// built as a struct literal has no identity and scores uncached.
type Model struct {
	ResW, ResH int // nominal input resolution (cost accounting)
	LR         *nn.LogReg

	id    uint64                    // process-unique; see Score
	cells atomic.Pointer[cellSpans] // see spans
}

// modelIDs issues process-unique model identities; see Model.id.
var modelIDs atomic.Uint64

// NewModel creates an untrained proxy model for the given nominal input
// resolution.
func NewModel(resW, resH int, rng *rand.Rand) *Model {
	return FromWeights(resW, resH, nn.NewLogReg(featuresPerCell, rng))
}

// FromWeights returns a model at the given nominal input resolution with
// the readout lr, as loaded from disk. It takes ownership of lr.
func FromWeights(resW, resH int, lr *nn.LogReg) *Model {
	return &Model{ResW: resW, ResH: resH, LR: lr, id: modelIDs.Add(1)}
}

// analysisSize returns the stored-buffer resolution at which this model
// analyzes the frame: the model's nominal input fraction applied to the
// stored buffer.
func (m *Model) analysisSize(f *video.Frame) (int, int) {
	aw := int(float64(f.W)*float64(m.ResW)/float64(f.NomW) + 0.5)
	ah := int(float64(f.H)*float64(m.ResH)/float64(f.NomH) + 0.5)
	if aw < 2 {
		aw = 2
	}
	if ah < 2 {
		ah = 2
	}
	return aw, ah
}

// cellSpans holds, for one analysis geometry, the analysis-pixel span of
// every cell column and cell row. Adjacent spans share a pixel wherever a
// cell edge falls inside one.
type cellSpans struct {
	aw, ah, nomW, nomH int
	x0, x1             []int // per cell column
	y0, y1             []int // per cell row
}

// spans returns the cell spans for analysis resolution aw x ah of a
// nomW x nomH frame. A model sees one geometry for the whole of a dataset,
// so the last table built is kept on the model; a racing first call builds
// the same table twice and either copy serves.
func (m *Model) spans(aw, ah, nomW, nomH int) *cellSpans {
	if s := m.cells.Load(); s != nil && s.aw == aw && s.ah == ah && s.nomW == nomW && s.nomH == nomH {
		return s
	}
	s := &cellSpans{aw: aw, ah: ah, nomW: nomW, nomH: nomH}
	gw, gh := GridDims(nomW, nomH)
	edges := func(cells, size, nom int) (lo, hi []int) {
		scale := float64(size) / float64(nom) // analysis pixels per nominal pixel
		lo, hi = make([]int, cells), make([]int, cells)
		for c := range lo {
			lo[c] = min(max(int(float64(c*CellSize)*scale), 0), size-1)
			hi[c] = min(max(int(math.Ceil(float64((c+1)*CellSize)*scale)), lo[c]+1), size)
		}
		return lo, hi
	}
	s.x0, s.x1 = edges(gw, aw, nomW)
	s.y0, s.y1 = edges(gh, ah, nomH)
	m.cells.Store(s)
	return s
}

// forEachCell streams the per-cell feature vectors of the frame at the
// model's input resolution to visit, in row-major cell order. The frame's
// downsample is served by the process-wide cache.
func (m *Model) forEachCell(frame *video.Frame, bg *detect.BackgroundModel, visit func(cell int, feat [featuresPerCell]float64)) {
	aw, ah := m.analysisSize(frame)
	img := video.CachedDownsample(frame, aw, ah)
	// Without a background there is nothing to contrast against and both
	// difference features are 0: the zero table read against the image
	// itself gives exactly that.
	var tab video.DiffTable
	bgPix := img.Pix
	if bg != nil {
		bgImg := bg.At(aw, ah)
		imgMean, _ := img.SharedMeanStd()
		bgMean, _ := bgImg.SharedMeanStd()
		tab.Fill(imgMean - bgMean)
		bgPix = bgImg.Pix
	}

	s := m.spans(aw, ah, frame.NomW, frame.NomH)
	gw := len(s.x0)
	for cy, y0 := range s.y0 {
		y1 := s.y1[cy]
		for cx, x0 := range s.x0 {
			x1 := s.x1[cx]
			sum, sum2, sumDiff, maxDiff := cellStats(img.Pix[y0*aw+x0:], bgPix[y0*aw+x0:], aw, x1-x0, y1-y0, &tab)
			n := float64((x1 - x0) * (y1 - y0))
			mean := float64(sum) / n
			variance := float64(sum2)/n - mean*mean
			if variance < 0 {
				variance = 0
			}
			visit(cy*gw+cx, [featuresPerCell]float64{
				math.Sqrt(variance) / 32,
				sumDiff / n / 48,
				maxDiff / 64,
				mean / 255,
			})
		}
	}
}

// cellStats accumulates one cell: w x h pixels of img and bg, both starting
// at the cell's first pixel with the given row stride. The brightness sums
// are integers, which is what the float sums of integer-valued pixels were
// (exact below 2^53); the difference sum adds the table's values in
// row-major order, so it rounds as it always has.
func cellStats(img, bg []uint8, stride, w, h int, tab *video.DiffTable) (sum, sum2 uint64, sumDiff, maxDiff float64) {
	for y := 0; y < h; y++ {
		ip := img[y*stride : y*stride+w]
		bp := bg[y*stride : y*stride+w]
		for i, v := range ip {
			sum += uint64(v)
			sum2 += uint64(v) * uint64(v)
			d := tab.At(v, bp[i])
			sumDiff += d
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	return sum, sum2, sumDiff, maxDiff
}

// Features computes the per-cell feature matrix of the frame at the
// model's input resolution using the background model for contrast
// features. Features are written into dst, a caller-owned flat row-major
// matrix where cell i occupies dst[i*FeatureDim : (i+1)*FeatureDim]; dst
// is grown if its capacity is insufficient (nil allocates fresh) and the
// matrix is returned.
func (m *Model) Features(frame *video.Frame, bg *detect.BackgroundModel, dst []float64) []float64 {
	gw, gh := GridDims(frame.NomW, frame.NomH)
	n := gw * gh * featuresPerCell
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	m.forEachCell(frame, bg, func(cell int, feat [featuresPerCell]float64) {
		copy(dst[cell*featuresPerCell:(cell+1)*featuresPerCell], feat[:])
	})
	return dst
}

// FeatureDim is the dimensionality of one cell's feature vector (the row
// stride of the matrix Features fills).
const FeatureDim = featuresPerCell

// Validate reports why m cannot score a frame, or nil: its logistic
// readout must weigh FeatureDim finite features.
func (m *Model) Validate() error {
	if err := m.LR.Validate(FeatureDim); err != nil {
		return fmt.Errorf("proxy: readout: %w", err)
	}
	return nil
}

// Score runs the proxy model on a frame, charging simulated proxy cost, and
// returns the per-cell positive-class probabilities. Scores are kept in
// the process-wide frame cache under (frame, model, background), so a
// frame scored again by the same model is a lookup; the cost and the
// proxy.invocations count are charged on every call, hit or miss, so
// simulated runtimes do not depend on the cache. The returned slice is
// shared with other callers and MUST be treated as read-only.
func (m *Model) Score(frame *video.Frame, bg *detect.BackgroundModel, acct *costmodel.Accountant) []float64 {
	metInvocations.Inc()
	acct.Add(costmodel.OpProxy, costmodel.ProxyCost(m.ResW, m.ResH))
	var bgFrame *video.Frame
	if bg != nil {
		bgFrame = bg.Frame()
	}
	return video.CachedScores(frame, m.id, bgFrame, func() []float64 { return m.score(frame, bg) })
}

// score computes what Score returns. Feature computation and the logistic
// readout are fused per cell, so the only allocation is the returned
// slice.
func (m *Model) score(frame *video.Frame, bg *detect.BackgroundModel) []float64 {
	gw, gh := GridDims(frame.NomW, frame.NomH)
	scores := make([]float64, gw*gh)
	m.forEachCell(frame, bg, func(cell int, feat [featuresPerCell]float64) {
		scores[cell] = m.LR.Predict(feat[:])
	})
	return scores
}

// ScorePrec is named by benchmark/replay.go; delete with the next
// benchmark PR. It is Score.
func (m *Model) ScorePrec(_ nn.Precision, frame *video.Frame, bg *detect.BackgroundModel, acct *costmodel.Accountant) []float64 {
	return m.Score(frame, bg, acct)
}

// Threshold converts per-cell scores into a positive-cell grid using the
// confidence threshold B_proxy.
func Threshold(nomW, nomH int, scores []float64, bProxy float64) *Grid {
	g := NewGrid(nomW, nomH)
	ThresholdInto(g, scores, bProxy)
	return g
}

// ThresholdInto writes the thresholded scores into an existing grid of the
// same cell count, letting per-frame loops reuse one grid allocation. It
// returns the positive cells in ascending order, the list Grouper.Group
// takes; the list is the grid's and is valid until its next ThresholdInto.
func ThresholdInto(g *Grid, scores []float64, bProxy float64) []int {
	if len(scores) != len(g.Pos) {
		panic(fmt.Sprintf("proxy: %d scores for a %dx%d grid", len(scores), g.W, g.H))
	}
	if cap(g.pos) < len(g.Pos) {
		g.pos = make([]int, len(g.Pos))
	}
	pos := g.pos[:len(g.Pos)]
	n := 0
	for i, s := range scores {
		on := s >= bProxy
		g.Pos[i] = on
		pos[n] = i // kept only if on: n advances past it
		if on {
			n++
		}
	}
	g.pos = pos[:n]
	return g.pos
}

// TrainExample is one frame's worth of proxy training data.
type TrainExample struct {
	Frame *video.Frame
	Boxes []geom.Rect // theta_best detections
}

// Train fits the model on the examples' cells using SGD, charging simulated
// training cost. Per the paper, only frames with at least one detection are
// used (the caller may pre-filter; Train also skips empty ones), and labels
// are 1 for cells intersecting a detection. The model gets a new identity,
// so no score cached under the old weights is served again.
func (m *Model) Train(examples []TrainExample, bg *detect.BackgroundModel, epochs int, rng *rand.Rand, acct *costmodel.Accountant) {
	defer func() { m.id = modelIDs.Add(1) }()
	var xs []nn.Vec
	var ts []float64
	for _, ex := range examples {
		if len(ex.Boxes) == 0 {
			continue
		}
		// Each example gets its own matrix; the retained row views index
		// into it without overlapping.
		feats := m.Features(ex.Frame, bg, nil)
		truth := TruthGrid(ex.Frame.NomW, ex.Frame.NomH, ex.Boxes)
		for i := range truth.Pos {
			xs = append(xs, nn.Vec(feats[i*featuresPerCell:(i+1)*featuresPerCell]))
			if truth.Pos[i] {
				ts = append(ts, 1)
			} else {
				ts = append(ts, 0)
			}
		}
		acct.Add(costmodel.OpTrainProx, costmodel.ProxyCost(m.ResW, m.ResH)*float64(epochs))
	}
	if len(xs) == 0 {
		return
	}
	m.LR.TrainEpochs(xs, ts, epochs, 0.25, 1e-5, rng)
}

// DefaultResolutions returns the five proxy input resolutions trained for a
// dataset with the given nominal frame size, as fractions of the nominal
// resolution (the paper trains 5 models at pre-determined resolutions).
func DefaultResolutions(nomW, nomH int) [][2]int {
	fracs := []float64{0.5, 0.375, 0.25, 0.1875, 0.125}
	out := make([][2]int, len(fracs))
	for i, f := range fracs {
		out[i] = [2]int{roundEven(float64(nomW) * f), roundEven(float64(nomH) * f)}
	}
	return out
}

func roundEven(v float64) int {
	n := int(v + 0.5)
	if n%2 == 1 {
		n++
	}
	if n < 2 {
		n = 2
	}
	return n
}
