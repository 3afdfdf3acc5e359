// Package detect implements OTIF's object detection module. Two detector
// architectures are provided, standing in for the paper's YOLOv3 and Mask
// R-CNN: both are real image-processing detectors (background model +
// brightness-offset compensation + thresholding + connected components)
// whose accuracy emerges from the pixels they are given. "yolo" analyzes a
// coarsened difference image and is cheap; "rcnn" analyzes the full stored
// resolution with box refinement and costs ~5x more, mirroring the paper's
// speed/accuracy ordering of the two model families.
//
// Detectors run either on whole frames or inside rectangular windows
// selected by the segmentation proxy model (§3.3); every invocation charges
// simulated GPU cost for the *nominal* pixel count of its input, so halving
// the input resolution really does quarter the detector cost.
package detect

import (
	"math"
	"sort"
	"sync"

	"otif/internal/costmodel"
	"otif/internal/geom"
	"otif/internal/nn"
	"otif/internal/obs"
	"otif/internal/video"
)

// Pre-registered metric handles; recording on the per-frame hot path is
// a lock-free atomic add with no map lookups or allocation.
var (
	metInvocations = obs.Default.Counter("detect.invocations")
	metWindows     = obs.Default.Counter("detect.windows")
	metDetections  = obs.Default.Counter("detect.detections")
)

// Detection is one detected object in nominal frame coordinates.
// AppMean and AppStd are appearance statistics of the detection patch,
// captured at detection time so downstream trackers can use appearance
// features without re-reading frames.
type Detection struct {
	FrameIdx int
	Box      geom.Rect
	Score    float64 // confidence in [0, 1]
	Category string  // "car", "bus", "pedestrian"
	AppMean  float64
	AppStd   float64
}

// Arch identifies a detector architecture.
type Arch string

// Supported architectures.
const (
	ArchYOLO Arch = "yolo"
	ArchRCNN Arch = "rcnn"
)

// PerPixelCost returns the simulated GPU seconds per nominal input pixel
// for the architecture.
func (a Arch) PerPixelCost() float64 {
	if a == ArchRCNN {
		return costmodel.RCNNPerPixel
	}
	return costmodel.YOLOPerPixel
}

// Classifier assigns a category to a detection box.
type Classifier interface {
	Classify(box geom.Rect) string
}

// SizeClassifier classifies detections by nominal box area and aspect
// ratio: tall small boxes are pedestrians, very large boxes are buses,
// everything else is a car.
type SizeClassifier struct {
	PedMaxArea float64 // boxes under this area with H > W are pedestrians
	BusMinArea float64 // boxes over this area are buses
}

// Classify implements Classifier.
func (c SizeClassifier) Classify(box geom.Rect) string {
	area := box.Area()
	if c.BusMinArea > 0 && area >= c.BusMinArea {
		return "bus"
	}
	if c.PedMaxArea > 0 && area <= c.PedMaxArea && box.H > box.W {
		return "pedestrian"
	}
	return "car"
}

// BackgroundModel is the detector's model of the static scene, estimated
// from sampled frames (this is the "detector training" of the pipeline).
// It is safe for concurrent use: parallel clip execution shares one model.
type BackgroundModel struct {
	frame *video.Frame
	mu    sync.Mutex
	// cache of the background downsampled to previously requested stored
	// resolutions, keyed by w<<20|h
	cache map[int]*video.Frame
}

// TrainBackground estimates the background as the per-pixel median over
// the given frames. All frames must share the same stored resolution.
func TrainBackground(frames []*video.Frame) *BackgroundModel {
	if len(frames) == 0 {
		return nil
	}
	w, h := frames[0].W, frames[0].H
	bg := video.NewFrame(w, h, frames[0].NomW, frames[0].NomH)
	vals := make([]uint8, len(frames))
	for i := 0; i < w*h; i++ {
		for j, f := range frames {
			vals[j] = f.Pix[i]
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		bg.Pix[i] = vals[len(vals)/2]
	}
	return &BackgroundModel{frame: bg, cache: map[int]*video.Frame{}}
}

// NewBackgroundModel wraps an already estimated background frame (used
// when loading a persisted model).
func NewBackgroundModel(frame *video.Frame) *BackgroundModel {
	return &BackgroundModel{frame: frame, cache: map[int]*video.Frame{}}
}

// Frame returns the full-resolution background estimate.
func (b *BackgroundModel) Frame() *video.Frame { return b.frame }

// At returns the background downsampled to stored resolution w x h,
// keeping the result for the model's lifetime: a model is asked for a
// handful of resolutions, every frame, and clip frames passing through the
// shared frame cache must not evict them. The returned frame is shared and
// must be treated as read-only.
func (b *BackgroundModel) At(w, h int) *video.Frame {
	key := w<<20 | h
	b.mu.Lock()
	defer b.mu.Unlock()
	if f, ok := b.cache[key]; ok {
		return f
	}
	f := b.frame.Downsample(w, h)
	b.cache[key] = f
	return f
}

// Config parameterizes a detector instance. Width/Height is the nominal
// input resolution the detector runs at (the tuner's resolution knob);
// ConfThresh filters detections by confidence.
type Config struct {
	Arch          Arch
	Width, Height int
	ConfThresh    float64
}

// Detector detects objects in frames or frame windows.
//
// A Detector carries reusable analysis scratch, so each instance must be
// used by one goroutine at a time (every call site in this repository
// constructs detectors per worker); the models it points to (background,
// classifier, accountant) remain safely shareable.
//
// The scratch is drawn lazily from a geometry-keyed pool; owners that run
// one detector per clip should call Release when the clip finishes so the
// next clip reuses the grown buffers. Detectors that are never Released
// still work — their scratch is simply collected.
type Detector struct {
	Cfg        Config
	Background *BackgroundModel
	Classify   Classifier
	Acct       *costmodel.Accountant
	// Prec is named by benchmark/replay.go; delete with the next benchmark
	// PR. Nothing reads it.
	Prec nn.Precision

	// Arena, when non-nil, owns every detection slice this detector
	// returns: results stay valid until the arena's Release, instead of
	// being independent heap allocations. The pooled clip-execution path
	// sets it; a nil arena preserves plain heap semantics.
	Arena *Arena

	scratch *analyzeScratch
}

// analyzeScratch holds the per-invocation buffers of analyze and
// connectedComponents, reused across calls to keep the per-frame hot path
// allocation-free. mask is cleared at the start of every analyze call:
// analyze only writes the region it inspects, while the component scan
// reads the whole plane. diff is not: it is read only under the mask and
// inside component boxes, all within the region the call has just written.
// dets and win carry each call's detections until they are copied out
// (into the arena or the heap).
type analyzeScratch struct {
	mask   []bool
	diff   []float64
	labels []int32
	stack  []int
	comps  []component
	dets   []Detection
	win    []Detection

	// tab is the difference table of tabOffset (valid once tabFilled).
	// Every window of one frame has the frame's offset, so DetectWindows
	// fills it once per frame, not once per window.
	tab       video.DiffTable
	tabOffset float64
	tabFilled bool
}

// diffTable returns the difference table for a brightness offset.
func (s *analyzeScratch) diffTable(offset float64) *video.DiffTable {
	if !s.tabFilled || s.tabOffset != offset {
		s.tab.Fill(offset)
		s.tabOffset, s.tabFilled = offset, true
	}
	return &s.tab
}

// scratchFor returns the detector's analysis scratch, acquiring one from
// the geometry-keyed pool (sized for a plane of the given pixel count) on
// first use.
func (d *Detector) scratchFor(pixels int) *analyzeScratch {
	if d.scratch == nil {
		d.scratch = getAnalyzeScratch(pixels)
	}
	return d.scratch
}

// Release returns the detector's pooled scratch. The detector remains
// usable (a fresh scratch is acquired on the next call); call it when the
// detector's clip is done.
func (d *Detector) Release() {
	putAnalyzeScratch(d.scratch)
	d.scratch = nil
}

// minComponentPixels is the smallest connected component (in analysis
// pixels) accepted as a detection; smaller blobs are treated as noise.
const minComponentPixels = 3

// diffThreshold is the base brightness-difference threshold (grey levels)
// for foreground pixels. The rcnn architecture uses a finer threshold and
// refines boxes afterwards.
func (d *Detector) diffThreshold() float64 {
	if d.Cfg.Arch == ArchRCNN {
		return 16
	}
	return 22
}

// Detect runs the detector on the whole frame, charging cost for one
// full-frame invocation at the configured input resolution. The returned
// slice is arena-owned when the detector has an Arena (valid until its
// Release), and a fresh heap slice otherwise; empty results are nil either
// way.
func (d *Detector) Detect(frame *video.Frame, frameIdx int) []Detection {
	metInvocations.Inc()
	d.Acct.Add(costmodel.OpDetect,
		costmodel.DetectCost(d.Cfg.Arch.PerPixelCost(), d.Cfg.Width, d.Cfg.Height))
	dets := d.analyze(nil, frame, frameIdx, geom.Rect{}, frame.Bounds())
	if d.scratch != nil {
		d.scratch.dets = dets[:0]
	}
	metDetections.Add(int64(len(dets)))
	return d.Arena.take(dets)
}

// DetectWindows runs the detector inside each window (nominal coordinates),
// charging per-window cost at the window's share of the configured input
// resolution, and merges duplicate detections across overlapping windows.
// Result ownership matches Detect's.
func (d *Detector) DetectWindows(frame *video.Frame, frameIdx int, windows []geom.Rect) []Detection {
	metInvocations.Inc()
	metWindows.Add(int64(len(windows)))
	scaleX := float64(d.Cfg.Width) / float64(frame.NomW)
	scaleY := float64(d.Cfg.Height) / float64(frame.NomH)
	var all []Detection
	for _, win := range windows {
		w := int(win.W*scaleX + 0.5)
		h := int(win.H*scaleY + 0.5)
		if w < 1 {
			w = 1
		}
		if h < 1 {
			h = 1
		}
		d.Acct.Add(costmodel.OpDetect, costmodel.DetectCost(d.Cfg.Arch.PerPixelCost(), w, h))
		all = d.analyze(all, frame, frameIdx, win, win)
	}
	var out []Detection
	if d.scratch != nil {
		out = dedupeInto(d.scratch.win[:0], all)
		d.scratch.win = out[:0]
		d.scratch.dets = all[:0]
	} else {
		out = dedupeInto(nil, all)
	}
	metDetections.Add(int64(len(out)))
	return d.Arena.take(out)
}

// analyze performs background subtraction inside region (nominal coords;
// empty means full frame) at the detector's effective analysis resolution,
// appending detections to dst. When dst is nil the scratch's detection
// buffer is used, so the result is only valid until the next detector
// call; Detect/DetectWindows copy it out before returning.
func (d *Detector) analyze(dst []Detection, frame *video.Frame, frameIdx int, region, bounds geom.Rect) []Detection {
	if d.Background == nil {
		return dst
	}
	// Effective stored analysis resolution: the detector input resolution
	// expressed as a fraction of nominal, applied to the stored buffer.
	fx := float64(d.Cfg.Width) / float64(frame.NomW)
	fy := float64(d.Cfg.Height) / float64(frame.NomH)
	aw := int(float64(frame.W)*fx + 0.5)
	ah := int(float64(frame.H)*fy + 0.5)
	if d.Cfg.Arch == ArchYOLO {
		// The single-stage detector analyzes a coarser grid.
		aw = (aw + 1) / 2
		ah = (ah + 1) / 2
	}
	if aw < 2 {
		aw = 2
	}
	if ah < 2 {
		ah = 2
	}
	img := video.CachedDownsample(frame, aw, ah)
	bg := d.Background.At(aw, ah)

	// Compensate the global brightness flicker. img and bg are shared
	// read-only planes (cached downsample, background model), so their
	// full-frame stats memoize on the frame.
	imgMean, _ := img.SharedMeanStd()
	bgMean, _ := bg.SharedMeanStd()
	offset := imgMean - bgMean

	// Restrict analysis to the region (in analysis pixels).
	x0, y0, x1, y1 := 0, 0, aw, ah
	if !region.Empty() {
		sx := float64(aw) / float64(frame.NomW)
		sy := float64(ah) / float64(frame.NomH)
		x0 = int(region.X * sx)
		y0 = int(region.Y * sy)
		x1 = int(math.Ceil(region.MaxX() * sx))
		y1 = int(math.Ceil(region.MaxY() * sy))
		x0 = min(max(x0, 0), aw)
		x1 = min(max(x1, 0), aw)
		y0 = min(max(y0, 0), ah)
		y1 = min(max(y1, 0), ah)
	}

	thresh := d.diffThreshold()
	s := d.scratchFor(aw * ah)
	if dst == nil {
		dst = s.dets[:0]
	}
	mask := growSlice(&s.mask, aw*ah)
	clear(mask)
	diff := growSlice(&s.diff, aw*ah)
	fillDiff(diff, mask, img, bg, s.diffTable(offset), thresh, aw, x0, x1, y0, y1)
	return emitDetections(d, dst, s, mask, diff, frame, frameIdx, bounds, aw, ah)
}

// fillDiff writes the brightness-compensated difference plane inside the
// analysis window, read off the frame's difference table, and thresholds
// it into mask, which arrives cleared.
func fillDiff(diff []float64, mask []bool, img, bg *video.Frame, tab *video.DiffTable, thresh float64, aw, x0, x1, y0, y1 int) {
	if x1 <= x0 {
		return
	}
	for y := y0; y < y1; y++ {
		ip := img.Pix[y*aw+x0 : y*aw+x1]
		bp := bg.Pix[y*aw+x0 : y*aw+x1]
		dr := diff[y*aw+x0 : y*aw+x1]
		mr := mask[y*aw+x0 : y*aw+x1]
		for x, v := range ip {
			dv := tab.At(v, bp[x])
			dr[x] = dv
			mr[x] = dv > thresh
		}
	}
}

// emitDetections runs the component scan over the difference plane and
// appends the surviving detections to dst.
func emitDetections(d *Detector, dst []Detection, s *analyzeScratch, mask []bool, diff []float64, frame *video.Frame, frameIdx int, bounds geom.Rect, aw, ah int) []Detection {
	comps := connectedComponentsInto(s, mask, diff, aw, ah)
	sxN := float64(frame.NomW) / float64(aw)
	syN := float64(frame.NomH) / float64(ah)
	for _, c := range comps {
		if c.count < minComponentPixels {
			continue
		}
		box := geom.RectFromBounds(float64(c.minX)*sxN, float64(c.minY)*syN,
			float64(c.maxX+1)*sxN, float64(c.maxY+1)*syN)
		if d.Cfg.Arch == ArchRCNN {
			box = refineBox(diff, aw, ah, c, sxN, syN)
		}
		box = box.Clip(bounds)
		if box.Empty() {
			continue
		}
		score := scoreOf(c)
		if score < d.Cfg.ConfThresh {
			continue
		}
		cat := "car"
		if d.Classify != nil {
			cat = d.Classify.Classify(box)
		}
		mean, std := frame.MeanStd(box)
		dst = append(dst, Detection{
			FrameIdx: frameIdx, Box: box, Score: score, Category: cat,
			AppMean: mean, AppStd: std,
		})
	}
	return dst
}

// scoreOf maps a component's mean difference strength and size into a
// confidence in [0, 1]. Strong, large blobs (real objects) score high;
// marginal noise blobs score low.
func scoreOf(c component) float64 {
	meanDiff := c.sumDiff / float64(c.count)
	s := (meanDiff - 10) / 60
	// Very small components are less trustworthy.
	s *= math.Min(1, float64(c.count)/8.0+0.4)
	return math.Max(0, math.Min(1, s))
}

// refineBox recomputes the box as a diff-weighted extent around the
// component, giving the two-stage architecture tighter boxes.
func refineBox(diff []float64, w, h int, c component, sx, sy float64) geom.Rect {
	var sumW, sumX, sumY, sumXX, sumYY float64
	for y := c.minY; y <= c.maxY; y++ {
		for x := c.minX; x <= c.maxX; x++ {
			d := diff[y*w+x]
			if d <= 0 {
				continue
			}
			sumW += d
			sumX += d * float64(x)
			sumY += d * float64(y)
			sumXX += d * float64(x) * float64(x)
			sumYY += d * float64(y) * float64(y)
		}
	}
	if sumW == 0 {
		return geom.RectFromBounds(float64(c.minX)*sx, float64(c.minY)*sy,
			float64(c.maxX+1)*sx, float64(c.maxY+1)*sy)
	}
	cx := sumX / sumW
	cy := sumY / sumW
	stdX := math.Sqrt(math.Max(0.25, sumXX/sumW-cx*cx))
	stdY := math.Sqrt(math.Max(0.25, sumYY/sumW-cy*cy))
	// +-1.9 sigma covers the near-uniform ellipse interior.
	return geom.RectFromBounds((cx-1.9*stdX)*sx, (cy-1.9*stdY)*sy,
		(cx+1.9*stdX+1)*sx, (cy+1.9*stdY+1)*sy)
}

type component struct {
	minX, minY, maxX, maxY int
	count                  int
	sumDiff                float64
}

// growSlice resizes *s to length n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func growSlice[T bool | float64 | int32 | int](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// connectedComponents labels 4-connected regions of the mask, accumulating
// per-component extents and difference mass.
func connectedComponents(mask []bool, diff []float64, w, h int) []component {
	var s analyzeScratch
	return connectedComponentsInto(&s, mask, diff, w, h)
}

// connectedComponentsInto is connectedComponents with all working storage
// (labels, DFS stack, component list) drawn from the scratch. The returned
// slice aliases s.comps and is valid until the next call with the same
// scratch.
func connectedComponentsInto(s *analyzeScratch, mask []bool, diff []float64, w, h int) []component {
	labels := growSlice(&s.labels, w*h)
	clear(labels)
	comps := s.comps[:0]
	stack := s.stack
	for start := 0; start < w*h; start++ {
		if !mask[start] || labels[start] != 0 {
			continue
		}
		id := int32(len(comps) + 1)
		c := component{minX: w, minY: h, maxX: -1, maxY: -1}
		stack = append(stack[:0], start)
		labels[start] = id
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := p%w, p/w
			c.count++
			c.sumDiff += diff[p]
			if x < c.minX {
				c.minX = x
			}
			if x > c.maxX {
				c.maxX = x
			}
			if y < c.minY {
				c.minY = y
			}
			if y > c.maxY {
				c.maxY = y
			}
			if x > 0 && mask[p-1] && labels[p-1] == 0 {
				labels[p-1] = id
				stack = append(stack, p-1)
			}
			if x+1 < w && mask[p+1] && labels[p+1] == 0 {
				labels[p+1] = id
				stack = append(stack, p+1)
			}
			if y > 0 && mask[p-w] && labels[p-w] == 0 {
				labels[p-w] = id
				stack = append(stack, p-w)
			}
			if y+1 < h && mask[p+w] && labels[p+w] == 0 {
				labels[p+w] = id
				stack = append(stack, p+w)
			}
		}
		comps = append(comps, c)
	}
	s.stack = stack
	s.comps = comps
	return comps
}

// dedupe merges detections from overlapping windows: boxes with IoU > 0.5
// keep only the higher-scoring one.
func dedupe(dets []Detection) []Detection {
	return dedupeInto(nil, dets)
}

// dedupeInto is dedupe appending the surviving detections to dst (dets is
// sorted in place by score).
func dedupeInto(dst, dets []Detection) []Detection {
	sort.Slice(dets, func(i, j int) bool { return dets[i].Score > dets[j].Score })
	base := len(dst)
	for _, d := range dets {
		dup := false
		for _, k := range dst[base:] {
			if d.Box.IoU(k.Box) > 0.5 {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, d)
		}
	}
	return dst
}
