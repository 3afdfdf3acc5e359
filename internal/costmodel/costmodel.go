// Package costmodel provides the simulated hardware cost accounting that
// stands in for the paper's NVIDIA Tesla V100 GPU and Intel Xeon Gold 6142
// CPU. Every expensive operation in the pipeline (video decode, proxy model
// inference, object detector execution, tracker association) reports its
// cost to an Accountant, and all "runtime" numbers in the benchmark harness
// are sums of these simulated seconds rather than wall-clock time.
//
// Calibration anchors, all taken from the paper:
//
//   - YOLOv3 processes 960x540 frames at 100 fps on the V100 (§1), i.e.
//     ~1.93e-8 GPU-seconds per input pixel.
//   - Mask R-CNN is roughly 5x slower than YOLOv3 at the same resolution
//     (consistent with the reported detector families).
//   - Video decoding occupies roughly one third of CPU time once inference
//     is heavily optimized (§4.2), which pins the per-pixel decode cost
//     relative to the proxy-model cost at BlazeIt's 64x64 resolution.
//   - The segmentation proxy model is a shallow network over a low
//     resolution input; we model it at ~1/6 the per-pixel cost of YOLOv3.
package costmodel

import (
	"fmt"
	"sort"
	"sync"
)

// Per-pixel costs in simulated seconds. See package comment for calibration.
const (
	// YOLOPerPixel is the detector cost per input pixel for the fast
	// single-stage architecture: 1 / (100 fps * 960*540 px).
	YOLOPerPixel = 1.0 / (100 * 960 * 540)
	// RCNNPerPixel is the detector cost per input pixel for the slower
	// two-stage architecture.
	RCNNPerPixel = 5 * YOLOPerPixel
	// ProxyPerPixel is the segmentation proxy model cost per input pixel.
	ProxyPerPixel = YOLOPerPixel / 6
	// DecodePerPixel is the video decode cost per output pixel on the CPU.
	// Calibrated so that decode is roughly one third of total time for a
	// heavily optimized pipeline (§4.2).
	DecodePerPixel = YOLOPerPixel / 3
	// TrackerPerAssoc is the cost of scoring one (track, detection) pair
	// through the recurrent matching network.
	TrackerPerAssoc = 2e-6
	// EmbedPerPixel is the per-pixel cost of TASTI's embedding extractor
	// (a ResNet-18-scale model at 224x224; heavier per pixel than YOLO's
	// backbone at its larger input).
	EmbedPerPixel = 3 * YOLOPerPixel
	// DetectorFixed is the fixed per-invocation overhead of launching the
	// detector on one batch element (kernel launch, NMS, readback). This
	// is what makes many tiny windows more expensive than their pixel
	// count alone and motivates the fixed window-size set W.
	DetectorFixed = 4e-4
	// ProxyFixed is the fixed per-frame overhead of the proxy model.
	ProxyFixed = 5e-5
)

// Op identifies a cost category for breakdown reports (Figure 6).
type Op string

// Cost categories.
const (
	OpDecode    Op = "decode"
	OpProxy     Op = "proxy"
	OpDetect    Op = "detect"
	OpTrack     Op = "track"
	OpEmbed     Op = "embed"
	OpRefine    Op = "refine"
	OpTrainProx Op = "train-proxy"
	OpTrainTrkr Op = "train-tracker"
	OpTrainDet  Op = "train-detector"
	OpTune      Op = "tune"
	OpQuery     Op = "query"
)

// Accountant accumulates simulated cost by category. It is safe for
// concurrent use.
//
// For parallel execution the pipeline uses a shard pattern rather than a
// single shared accountant: each worker charges a goroutine-local
// accountant (created with NewAccountant) inside its hot loop and the
// owner folds the shards into the shared accountant with Merge once per
// unit of work, in a fixed order. That removes all cross-goroutine mutex
// contention from the hot path and, because both Merge and Total fold
// categories in sorted order, keeps floating-point totals bit-for-bit
// reproducible at any worker count.
type Accountant struct {
	mu    sync.Mutex
	total map[Op]float64
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant {
	return &Accountant{total: make(map[Op]float64)}
}

// Add charges seconds of simulated time to the given category.
func (a *Accountant) Add(op Op, seconds float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.total[op] += seconds
	a.mu.Unlock()
}

// Total returns the sum across all categories. Categories are summed in
// sorted order so the result is bit-for-bit reproducible regardless of
// map iteration order (floating-point addition is not associative).
func (a *Accountant) Total() float64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := make([]string, 0, len(a.total))
	for k := range a.total {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	var s float64
	for _, k := range keys {
		s += a.total[Op(k)]
	}
	return s
}

// Get returns the accumulated cost for one category.
func (a *Accountant) Get(op Op) float64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total[op]
}

// Merge folds other's accumulated costs into a. Categories are added in
// sorted order so that merging a fixed sequence of shards always produces
// the same floating-point totals regardless of map iteration order. Merge
// locks only a; it snapshots other first, so merging a goroutine-local
// shard into a shared accountant never holds both locks.
func (a *Accountant) Merge(other *Accountant) {
	if a == nil || other == nil {
		return
	}
	b := other.Breakdown()
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	a.mu.Lock()
	for _, k := range keys {
		a.total[Op(k)] += b[Op(k)]
	}
	a.mu.Unlock()
}

// Breakdown returns a copy of the per-category totals.
func (a *Accountant) Breakdown() map[Op]float64 {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[Op]float64, len(a.total))
	for k, v := range a.total {
		out[k] = v
	}
	return out
}

// Reset clears all accumulated costs.
func (a *Accountant) Reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.total = make(map[Op]float64)
	a.mu.Unlock()
}

// String renders the breakdown sorted by category name.
func (a *Accountant) String() string {
	b := a.Breakdown()
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%-14s %8.2fs\n", k, b[Op(k)])
	}
	return s
}

// DetectCost returns the simulated cost of one detector invocation on a
// w x h window. perPixel selects the architecture (YOLOPerPixel or
// RCNNPerPixel).
func DetectCost(perPixel float64, w, h int) float64 {
	return DetectorFixed + perPixel*float64(w*h)
}

// ProxyCost returns the simulated cost of one proxy-model invocation on a
// w x h input.
func ProxyCost(w, h int) float64 {
	return ProxyFixed + ProxyPerPixel*float64(w*h)
}

// DecodeCost returns the simulated cost of decoding one frame at w x h.
func DecodeCost(w, h int) float64 {
	return DecodePerPixel * float64(w*h)
}

// SampledDecodeCost returns the simulated cost of decoding one sampled
// frame at w x h after skipping the given number of frames since the
// previous sample. Modern codecs decode a group of pictures at a time, so
// skipping frames still pays a fraction of their decode cost: the sampled
// frame plus 15% of each skipped frame, which reproduces the paper's
// observation that decode remains a bottleneck at high speedups.
func SampledDecodeCost(w, h, skipped int) float64 {
	return DecodeCost(w, h) * (1 + 0.15*float64(skipped))
}

// EmbedCost returns the simulated cost of one embedding extraction at w x h.
func EmbedCost(w, h int) float64 {
	return ProxyFixed + EmbedPerPixel*float64(w*h)
}
