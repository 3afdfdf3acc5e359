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
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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

// SizeClassifier classifies detections by nominal box area and aspect
// ratio: tall small boxes are pedestrians, very large boxes are buses,
// everything else is a car. The zero value calls every box a car.
type SizeClassifier struct {
	PedMaxArea float64 // boxes under this area with H > W are pedestrians
	BusMinArea float64 // boxes over this area are buses
}

// Classify assigns a category to a detection box.
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
	// detectors holds the identity of each detector (configuration and
	// classifier) that has run over this background; see detectorID.
	detectors map[detectorKey]uint64
}

// detectorKey is what, beside the background, decides a full-frame
// detection: the configuration and the classifier.
type detectorKey struct {
	cfg      Config
	classify SizeClassifier
}

// detectorIDs issues process-unique detector identities; see detectorID.
var detectorIDs atomic.Uint64

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

// detectorID returns the process-unique identity of a detector with
// configuration cfg and classifier cls over this background, issuing one
// the first time the pair is asked for. The table lives and dies with the
// background, so it holds one entry per distinct configuration ever run
// over it, and a new background (even with equal pixels) issues new
// identities. A key that is not equal to itself (a NaN threshold) has no
// identity: 0, which the frame cache computes uncached.
func (b *BackgroundModel) detectorID(cfg Config, cls SizeClassifier) uint64 {
	k := detectorKey{cfg, cls}
	if k != k {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	id, ok := b.detectors[k]
	if !ok {
		if b.detectors == nil {
			b.detectors = map[detectorKey]uint64{}
		}
		id = detectorIDs.Add(1)
		b.detectors[k] = id
	}
	return id
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
	Classify   SizeClassifier
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
// connectedComponentsInto, reused across calls to keep the per-frame hot
// path allocation-free. Per-pixel work touches only the call's region and
// its foreground: mark lists the region's foreground pixels in fg, in
// row-major order, and the component pass starts from that list and reads
// differences off the table, so there is no difference plane, no mask, and
// no plane-sized clear or scan.
//
// Invariant: labels is all zero, over its whole length, between calls.
// mark sets -1 ("foreground, not yet labelled") at each index it appends
// to fg, labelling overwrites only those, and connectedComponentsInto
// zeroes exactly the fg indices before it returns.
//
// dets and win carry each call's detections until they are copied out
// (into the arena or the heap).
type analyzeScratch struct {
	labels []int32
	fg     []int32
	stack  []int
	comps  []component
	dets   []Detection
	win    []Detection

	// tab is the difference table of tabOffset (valid once tabFilled),
	// and the pixel differences v - b whose tab entry is at most tabThresh
	// (background) are the bgSpan integers from bgLo: |d - offset| rounds
	// monotonically on either side of offset, so they are one interval.
	// Every window of one frame shares them, so a frame fills them once.
	tab          video.DiffTable
	bgLo, bgSpan int
	tabOffset    float64
	tabThresh    float64
	tabFilled    bool
}

// fillTables makes tab and the background interval those of a brightness
// offset and threshold.
func (s *analyzeScratch) fillTables(offset, thresh float64) {
	if s.tabFilled && s.tabOffset == offset && s.tabThresh == thresh {
		return
	}
	s.tab.Fill(offset)
	lo, hi := -255, 255
	for lo <= hi && s.tab[lo+255] > thresh {
		lo++
	}
	for hi >= lo && s.tab[hi+255] > thresh {
		hi--
	}
	s.bgLo, s.bgSpan = lo, hi-lo+1
	s.tabOffset, s.tabThresh, s.tabFilled = offset, thresh, true
}

// mark lists the foreground pixels of the region [x0,x1)×[y0,y1) of an
// aw-wide plane in fg, in row-major order, and labels each -1.
func (s *analyzeScratch) mark(img, bg []uint8, aw, x0, x1, y0, y1 int) {
	if len(s.labels) < len(img) {
		s.labels = make([]int32, len(img))
	}
	fg := s.fg[:0]
	for y := y0; y < y1 && x0 < x1; y++ {
		row := y*aw + x0
		fg = slices.Grow(fg, x1-x0)
		fg = markRow(fg, s.labels, img[row:y*aw+x1], bg[row:y*aw+x1], s.bgLo, s.bgSpan, row)
	}
	s.fg = fg
}

// markRow is mark on one row that starts at plane index base; the caller
// reserves room in fg for the whole row. It is a leaf with no append so
// that the loop keeps its values in registers: with an append inside it,
// the compiler spilled them on every pixel.
//
//go:noinline
func markRow(fg, labels []int32, ip, bp []uint8, lo, span, base int) []int32 {
	bp = bp[:len(ip)]
	n := len(fg)
	fg = fg[:cap(fg)]
	for x, v := range ip {
		if uint(int(v)-int(bp[x])-lo) >= uint(span) {
			fg[n] = int32(base + x)
			labels[base+x] = -1
			n++
		}
	}
	return fg[:n]
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
//
// Detections are kept in the process-wide frame cache under (frame,
// detector identity), so a frame detected again by an equal detector over
// the same background is a copy out of the cache. The cost and the
// detect.invocations and detect.detections counts are charged on every
// call, hit or miss, so simulated runtimes do not depend on the cache.
func (d *Detector) Detect(frame *video.Frame, frameIdx int) []Detection {
	metInvocations.Inc()
	d.Acct.Add(costmodel.OpDetect,
		costmodel.DetectCost(d.Cfg.Arch.PerPixelCost(), d.Cfg.Width, d.Cfg.Height))
	if d.Background == nil {
		return nil
	}
	dets := video.CachedDetections(frame, d.Background.detectorID(d.Cfg, d.Classify),
		func() []Detection { return d.detect(frame) })
	metDetections.Add(int64(len(dets)))
	out := d.Arena.take(dets)
	for i := range out {
		out[i].FrameIdx = frameIdx
	}
	return out
}

// detect computes what the frame cache keeps for Detect: the frame's
// detections, with FrameIdx 0, in a heap slice of their own (nil when
// there are none), which is its only allocation.
func (d *Detector) detect(frame *video.Frame) []Detection {
	s, img, bg := d.prepare(frame)
	dets := d.analyze(s.dets[:0], s, img, bg, frame, 0, geom.Rect{}, frame.Bounds())
	s.dets = dets[:0]
	return append([]Detection(nil), dets...)
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
	}
	if d.Background == nil || len(windows) == 0 {
		return nil
	}
	s, img, bg := d.prepare(frame)
	all := s.dets[:0]
	for _, win := range windows {
		all = d.analyze(all, s, img, bg, frame, frameIdx, win, win)
	}
	out := dedupeInto(s.win[:0], all)
	s.win = out[:0]
	s.dets = all[:0]
	metDetections.Add(int64(len(out)))
	return d.Arena.take(out)
}

// prepare returns the detector's scratch and the frame's image and
// background at the effective analysis resolution, with the scratch's
// tables filled for the frame's brightness offset. Every window of a frame
// shares them.
func (d *Detector) prepare(frame *video.Frame) (s *analyzeScratch, img, bg *video.Frame) {
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
	img = video.CachedDownsample(frame, aw, ah)
	bg = d.Background.At(aw, ah)

	// Compensate the global brightness flicker. img and bg are shared
	// read-only planes (cached downsample, background model), so their
	// full-frame stats memoize on the frame.
	imgMean, _ := img.SharedMeanStd()
	bgMean, _ := bg.SharedMeanStd()
	s = d.scratchFor(aw * ah)
	s.fillTables(imgMean-bgMean, d.diffThreshold())
	return s, img, bg
}

// analyze performs background subtraction inside region (nominal coords;
// empty means full frame) of the frame's analysis planes, appending
// detections to dst.
func (d *Detector) analyze(dst []Detection, s *analyzeScratch, img, bg, frame *video.Frame, frameIdx int, region, bounds geom.Rect) []Detection {
	aw, ah := img.W, img.H
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

	s.mark(img.Pix, bg.Pix, aw, x0, x1, y0, y1)
	comps := connectedComponentsInto(s, img.Pix, bg.Pix, aw, ah)
	sxN := float64(frame.NomW) / float64(aw)
	syN := float64(frame.NomH) / float64(ah)
	for _, c := range comps {
		if c.count < minComponentPixels {
			continue
		}
		box := geom.RectFromBounds(float64(c.minX)*sxN, float64(c.minY)*syN,
			float64(c.maxX+1)*sxN, float64(c.maxY+1)*syN)
		if d.Cfg.Arch == ArchRCNN {
			box = refineBox(&s.tab, img.Pix, bg.Pix, aw, c, sxN, syN)
		}
		box = box.Clip(bounds)
		if box.Empty() {
			continue
		}
		score := scoreOf(c)
		if score < d.Cfg.ConfThresh {
			continue
		}
		cat := d.Classify.Classify(box)
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
func refineBox(tab *video.DiffTable, img, bg []uint8, w int, c component, sx, sy float64) geom.Rect {
	var sumW, sumX, sumY, sumXX, sumYY float64
	for y := c.minY; y <= c.maxY; y++ {
		for x := c.minX; x <= c.maxX; x++ {
			d := tab.At(img[y*w+x], bg[y*w+x])
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

// connectedComponentsInto labels the 4-connected regions of the foreground
// that mark listed, accumulating per-component extents and difference
// mass, with all working storage (DFS stack, component list) drawn from
// the scratch. Components start in fg order, which is the row-major order
// of a scan over the plane, so they come out in the same order and with
// their pixels visited in the same order as such a scan would. Before it
// returns it zeroes the labels it touched. The returned slice aliases
// s.comps and is valid until the next call with the same scratch.
func connectedComponentsInto(s *analyzeScratch, img, bg []uint8, w, h int) []component {
	labels := s.labels
	comps := s.comps[:0]
	stack := s.stack
	for _, start := range s.fg {
		if labels[start] != -1 {
			continue
		}
		id := int32(len(comps) + 1)
		c := component{minX: w, minY: h, maxX: -1, maxY: -1}
		stack = append(stack[:0], int(start))
		labels[start] = id
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := p%w, p/w
			c.count++
			c.sumDiff += s.tab.At(img[p], bg[p])
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
			if x > 0 && labels[p-1] == -1 {
				labels[p-1] = id
				stack = append(stack, p-1)
			}
			if x+1 < w && labels[p+1] == -1 {
				labels[p+1] = id
				stack = append(stack, p+1)
			}
			if y > 0 && labels[p-w] == -1 {
				labels[p-w] = id
				stack = append(stack, p-w)
			}
			if y+1 < h && labels[p+w] == -1 {
				labels[p+w] = id
				stack = append(stack, p+w)
			}
		}
		comps = append(comps, c)
	}
	for _, p := range s.fg {
		labels[p] = 0
	}
	s.stack = stack
	s.comps = comps
	return comps
}

// byScoreDesc orders detections by descending score: it is negative
// exactly where sort.Slice's less, a.Score > b.Score, is true.
func byScoreDesc(a, b Detection) int {
	if a.Score > b.Score {
		return -1
	}
	if a.Score < b.Score {
		return 1
	}
	return 0
}

// dedupe merges detections from overlapping windows: boxes with IoU > 0.5
// keep only the higher-scoring one.
func dedupe(dets []Detection) []Detection {
	return dedupeInto(nil, dets)
}

// dedupeInto is dedupe appending the surviving detections to dst (dets is
// sorted in place by score). slices.SortFunc runs the same pattern-defeating
// quicksort as sort.Slice, so equal scores keep sort.Slice's order, without
// the allocations of its reflection-based swapper.
func dedupeInto(dst, dets []Detection) []Detection {
	slices.SortFunc(dets, byScoreDesc)
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
