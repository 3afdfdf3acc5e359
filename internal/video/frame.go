// Package video provides the video substrate for OTIF: the greyscale Frame
// type with the resampling and cropping operations the detectors and proxy
// models need, a toy block-based codec that stands in for H264 (so that
// clip storage and decode cost are grounded in real code), and clip
// containers for the sampled training/validation/test sets.
//
// Frames carry two coordinate systems. All geometry in OTIF (detections,
// tracks, queries) lives in *nominal* coordinates — the dataset's advertised
// resolution, e.g. 1280x720. To keep the simulator tractable the pixel
// buffers are stored at a smaller *simulation* resolution; Frame.NomW/NomH
// record the nominal size and the Scale methods convert between the two.
// The cost model always charges for nominal pixels, so simulated runtimes
// are unaffected by the reduced storage resolution.
package video

import (
	"fmt"
	"math"
	"sync/atomic"

	"otif/internal/geom"
)

// Frame is a greyscale image with pixel values in [0, 255].
type Frame struct {
	W, H       int     // stored (simulation) resolution
	NomW, NomH int     // nominal resolution used for geometry and cost
	Pix        []uint8 // row-major, len W*H

	// id is a process-unique identity assigned at allocation, used by the
	// downsample cache to key derived buffers without pinning this frame.
	// Ids are never reused, so a stale cache entry can go unreferenced but
	// can never be wrongly returned for a different frame.
	id uint64

	// stats memoizes SharedMeanStd. Producers build a frame's pixels and
	// then publish it read-only (the shared-frame contract the downsample
	// cache already relies on), so the first SharedMeanStd call fixes the
	// value for the frame's lifetime. The detector and proxy models take
	// full-frame stats of the same cached downsample and background every
	// processed frame; the memo makes the repeat calls O(1). Racing first
	// calls compute identical values (a pure function of Pix), so
	// last-write-wins is safe.
	stats atomic.Pointer[frameStats]
}

type frameStats struct{ mean, std float64 }

// frameIDs issues process-unique frame identities; see Frame.id.
var frameIDs atomic.Uint64

// NewFrame allocates a zeroed frame at stored resolution w x h with the
// given nominal resolution.
func NewFrame(w, h, nomW, nomH int) *Frame {
	return &Frame{W: w, H: h, NomW: nomW, NomH: nomH,
		Pix: make([]uint8, w*h), id: frameIDs.Add(1)}
}

// At returns the pixel at stored coordinates (x, y), clamping out-of-range
// coordinates to the frame border.
func (f *Frame) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= f.W {
		x = f.W - 1
	}
	if y >= f.H {
		y = f.H - 1
	}
	return f.Pix[y*f.W+x]
}

// Set writes the pixel at stored coordinates (x, y); out-of-range writes
// are ignored.
func (f *Frame) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return
	}
	f.Pix[y*f.W+x] = v
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	g := NewFrame(f.W, f.H, f.NomW, f.NomH)
	copy(g.Pix, f.Pix)
	return g
}

// Bounds returns the frame bounds in nominal coordinates.
func (f *Frame) Bounds() geom.Rect {
	return geom.Rect{W: float64(f.NomW), H: float64(f.NomH)}
}

// ScaleToStored converts a nominal-coordinate rectangle to stored pixels.
func (f *Frame) ScaleToStored(r geom.Rect) geom.Rect {
	sx := float64(f.W) / float64(f.NomW)
	sy := float64(f.H) / float64(f.NomH)
	return geom.Rect{X: r.X * sx, Y: r.Y * sy, W: r.W * sx, H: r.H * sy}
}

// Downsample returns the frame box-filtered to stored resolution w x h.
// The nominal resolution is preserved, so geometry remains comparable
// across resolutions. Upsampling requests are served by nearest-neighbor.
//
// Output pixel (x, y) is the floored mean of source columns
// [x*W/w, (x+1)*W/w) over source rows [y*H/h, (y+1)*H/h), an empty span
// widening to its first pixel.
func (f *Frame) Downsample(w, h int) *Frame {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("video: invalid downsample target %dx%d", w, h))
	}
	if w == f.W && h == f.H {
		return f.Clone()
	}
	out := NewFrame(w, h, f.NomW, f.NomH)
	if f.W == 0 || f.H == 0 {
		return out
	}
	switch {
	case f.W == 2*w && f.H == 2*h:
		// The single-stage detector's analysis grid: every span is 2x2,
		// so the sums need no tables and the division is a shift
		// (BenchmarkDownsample: a third of boxFilter's time).
		for y := 0; y < h; y++ {
			halveRows(out.Pix[y*w:(y+1)*w], f.Pix[2*y*f.W:], f.Pix[(2*y+1)*f.W:])
		}
	// One output pixel averages at most ceil(W/w) x ceil(H/h) source
	// pixels, and a 32-bit sum holds 1<<24 of them. The running sum of a
	// whole row band may exceed that and wrap; a span's sum is a
	// difference of two of its values, exact modulo 2^32.
	case ((f.W+w-1)/w)*((f.H+h-1)/h) <= 1<<24:
		boxFilter[uint32](out, f)
	default:
		boxFilter[uint64](out, f)
	}
	return out
}

// halveRows writes one output row of an exact 2x reduction from its two
// source rows.
//
//go:noinline
func halveRows(dst, r0, r1 []uint8) {
	r0 = r0[:2*len(dst)]
	r1 = r1[:2*len(dst)]
	for x := range dst {
		dst[x] = uint8((uint32(r0[2*x]) + uint32(r0[2*x+1]) + uint32(r1[2*x]) + uint32(r1[2*x+1])) >> 2)
	}
}

// boxFilter fills dst with the box-filtered src. The column spans are
// computed once; each output row adds its source rows into one row of
// column sums and turns that into a running sum, so a source pixel costs
// one add and an output pixel one subtraction and one division.
//
// The three loops are leaf functions kept out of line: inlined into this
// frame the compiler spills their accumulators to the stack, which doubles
// the time per row (measured on 240x160 -> 120x80).
func boxFilter[T uint32 | uint64](dst, src *Frame) {
	W, H, w, h := src.W, src.H, dst.W, dst.H
	buf := make([]T, 2*w+2*W+1)
	lo, hi, colSum, prefix := buf[:w], buf[w:2*w], buf[2*w:2*w+W], buf[2*w+W:] // prefix[0] stays 0
	for x := range lo {
		x0, x1 := x*W/w, (x+1)*W/w
		if x1 <= x0 {
			x1 = x0 + 1
		}
		lo[x], hi[x] = T(x0), T(x1)
	}
	for y := 0; y < h; y++ {
		y0, y1 := y*H/h, (y+1)*H/h
		if y1 <= y0 {
			y1 = y0 + 1
		}
		clear(colSum)
		for yy := y0; yy < y1-1; yy++ {
			addRow(colSum, src.Pix[yy*W:])
		}
		prefixSums(prefix[1:], colSum, src.Pix[(y1-1)*W:])
		spanMeans(dst.Pix[y*w:(y+1)*w], prefix, lo, hi, T(y1-y0))
	}
}

// addRow adds one source row into the column sums.
//
//go:noinline
func addRow[T uint32 | uint64](colSum []T, row []uint8) {
	row = row[:len(colSum)]
	for i := range colSum {
		colSum[i] += T(row[i])
	}
}

// prefixSums writes the running sum of colSum plus the band's last source
// row: prefix[i] is the sum of the band's columns 0..i.
//
//go:noinline
func prefixSums[T uint32 | uint64](prefix, colSum []T, row []uint8) {
	row = row[:len(colSum)]
	prefix = prefix[:len(colSum)]
	var run T
	for i := range colSum {
		run += colSum[i] + T(row[i])
		prefix[i] = run
	}
}

// spanMeans writes one output row: each pixel is its span's sum, read off
// the running sums, over the span's pixel count.
//
//go:noinline
func spanMeans[T uint32 | uint64](dst []uint8, prefix, lo, hi []T, rows T) {
	lo = lo[:len(dst)]
	hi = hi[:len(dst)]
	for x := range dst {
		l, h := lo[x], hi[x]
		dst[x] = uint8((prefix[h] - prefix[l]) / ((h - l) * rows))
	}
}

// SharedMeanStd returns the full-frame mean and standard deviation,
// memoized on the frame. It is for *published* frames — ones already
// shared read-only under the cache's contract (cached downsamples, the
// background model's planes). The first call fixes the result for the
// frame's lifetime; use MeanStd on frames that may still be mutated.
func (f *Frame) SharedMeanStd() (mean, std float64) {
	if s := f.stats.Load(); s != nil {
		return s.mean, s.std
	}
	mean, std = f.MeanStd(geom.Rect{})
	f.stats.Store(&frameStats{mean: mean, std: std})
	return mean, std
}

// MeanStd returns the mean and standard deviation of pixel values inside
// the nominal-coordinate rectangle r (whole frame if r is empty).
func (f *Frame) MeanStd(r geom.Rect) (mean, std float64) {
	var x0, y0, x1, y1 int
	if r.Empty() {
		x0, y0, x1, y1 = 0, 0, f.W, f.H
	} else {
		s := f.ScaleToStored(r.Clip(f.Bounds()))
		x0, y0 = int(s.X), int(s.Y)
		x1, y1 = int(s.MaxX()+0.5), int(s.MaxY()+0.5)
		if x1 <= x0 {
			x1 = x0 + 1
		}
		if y1 <= y0 {
			y1 = y0 + 1
		}
		if x1 > f.W {
			x1 = f.W
		}
		if y1 > f.H {
			y1 = f.H
		}
	}
	if x1 <= x0 || y1 <= y0 {
		return 0, 0
	}
	// Integer sums: exact, as the float sums of these integers were
	// (both stay far below 2^53).
	var sum, sum2 uint64
	for y := y0; y < y1; y++ {
		for _, v := range f.Pix[y*f.W+x0 : y*f.W+x1] {
			sum += uint64(v)
			sum2 += uint64(v) * uint64(v)
		}
	}
	n := float64((x1 - x0) * (y1 - y0))
	mean = float64(sum) / n
	variance := float64(sum2)/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}
