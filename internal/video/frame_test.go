package video

import (
	"bytes"
	"testing"

	"otif/internal/geom"
)

func testFrame(w, h int) *Frame {
	f := NewFrame(w, h, w*4, h*4)
	for i := range f.Pix {
		f.Pix[i] = uint8(i % 251)
	}
	return f
}

func TestAtSetClamping(t *testing.T) {
	f := NewFrame(4, 4, 16, 16)
	f.Set(1, 1, 42)
	if f.At(1, 1) != 42 {
		t.Error("Set/At roundtrip failed")
	}
	// Out-of-range reads clamp, writes are dropped.
	if f.At(-5, -5) != f.At(0, 0) {
		t.Error("negative At should clamp to border")
	}
	if f.At(100, 100) != f.At(3, 3) {
		t.Error("overflow At should clamp to border")
	}
	f.Set(-1, 0, 99)
	f.Set(4, 0, 99)
	for _, p := range f.Pix {
		if p == 99 {
			t.Error("out-of-range Set must be ignored")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	f := testFrame(8, 8)
	g := f.Clone()
	g.Pix[0] = 200
	if f.Pix[0] == 200 {
		t.Error("Clone must copy pixels")
	}
}

func TestDownsampleMeanPreserving(t *testing.T) {
	f := NewFrame(8, 8, 32, 32)
	for i := range f.Pix {
		f.Pix[i] = 100
	}
	d := f.Downsample(4, 4)
	if d.W != 4 || d.H != 4 {
		t.Fatalf("downsampled size %dx%d", d.W, d.H)
	}
	if d.NomW != 32 || d.NomH != 32 {
		t.Error("nominal size must be preserved")
	}
	for _, p := range d.Pix {
		if p != 100 {
			t.Errorf("constant image downsample changed value: %d", p)
		}
	}
	// Box filter averages: a half-black half-white image downsampled to
	// one pixel lands near the mean.
	f2 := NewFrame(2, 1, 2, 1)
	f2.Pix = []uint8{0, 200}
	one := f2.Downsample(1, 1)
	if one.Pix[0] != 100 {
		t.Errorf("average = %d, want 100", one.Pix[0])
	}
}

func TestDownsampleSameSizeIsCopy(t *testing.T) {
	f := testFrame(6, 4)
	d := f.Downsample(6, 4)
	d.Pix[0] = 255
	if f.Pix[0] == 255 {
		t.Error("same-size downsample should copy, not alias")
	}
}

func TestDownsamplePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	testFrame(4, 4).Downsample(0, 4)
}

func TestScaleToStored(t *testing.T) {
	f := NewFrame(100, 50, 400, 200)
	if got, want := f.ScaleToStored(geom.Rect{X: 40, Y: 20, W: 80, H: 40}), (geom.Rect{X: 10, Y: 5, W: 20, H: 10}); got != want {
		t.Errorf("ScaleToStored = %v, want %v", got, want)
	}
}

func TestMeanStd(t *testing.T) {
	f := NewFrame(4, 4, 4, 4)
	for i := range f.Pix {
		f.Pix[i] = 10
	}
	mean, std := f.MeanStd(geom.Rect{})
	if mean != 10 || std != 0 {
		t.Errorf("MeanStd = %v, %v", mean, std)
	}
	f.Pix[0] = 30
	mean2, std2 := f.MeanStd(geom.Rect{})
	if mean2 <= 10 || std2 <= 0 {
		t.Errorf("MeanStd after change = %v, %v", mean2, std2)
	}
	// Sub-region stats.
	f2 := NewFrame(4, 4, 8, 8)
	for i := range f2.Pix {
		f2.Pix[i] = 0
	}
	f2.Set(0, 0, 100)
	m, _ := f2.MeanStd(geom.Rect{X: 0, Y: 0, W: 2, H: 2})
	if m != 100 {
		t.Errorf("region mean = %v, want 100 (only pixel (0,0) is in region)", m)
	}
}

func TestSharedMeanStdMemoizes(t *testing.T) {
	f := NewFrame(8, 8, 8, 8)
	for i := range f.Pix {
		f.Pix[i] = uint8(i * 3)
	}
	wantMean, wantStd := f.MeanStd(geom.Rect{})
	m, s := f.SharedMeanStd()
	if m != wantMean || s != wantStd {
		t.Fatalf("SharedMeanStd = %v, %v, want %v, %v", m, s, wantMean, wantStd)
	}
	// The memo must serve repeats without recomputing (and without
	// allocating).
	if n := testing.AllocsPerRun(100, func() { f.SharedMeanStd() }); n != 0 {
		t.Errorf("memoized SharedMeanStd allocates %v per op, want 0", n)
	}
	m2, s2 := f.SharedMeanStd()
	if m2 != wantMean || s2 != wantStd {
		t.Errorf("repeat SharedMeanStd = %v, %v, want %v, %v", m2, s2, wantMean, wantStd)
	}
}

// referenceDownsample is the box filter as Downsample computed it until
// the column-sum rewrite: span edges divided out per output pixel, two
// bounds tests per source pixel. It stays as the oracle the table-driven
// version must match byte for byte.
func referenceDownsample(f *Frame, w, h int) *Frame {
	out := NewFrame(w, h, f.NomW, f.NomH)
	for y := 0; y < h; y++ {
		y0 := y * f.H / h
		y1 := (y + 1) * f.H / h
		if y1 <= y0 {
			y1 = y0 + 1
		}
		for x := 0; x < w; x++ {
			x0 := x * f.W / w
			x1 := (x + 1) * f.W / w
			if x1 <= x0 {
				x1 = x0 + 1
			}
			var sum, n int
			for yy := y0; yy < y1 && yy < f.H; yy++ {
				row := yy * f.W
				for xx := x0; xx < x1 && xx < f.W; xx++ {
					sum += int(f.Pix[row+xx])
					n++
				}
			}
			if n > 0 {
				out.Pix[y*w+x] = uint8(sum / n)
			}
		}
	}
	return out
}

// noiseFrame fills a frame from a seeded xorshift stream, so every pixel
// value and every neighbour pair occurs.
func noiseFrame(w, h int, seed uint64) *Frame {
	f := NewFrame(w, h, w*4, h*4)
	x := seed*2654435761 + 1
	for i := range f.Pix {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f.Pix[i] = uint8(x >> 24)
	}
	return f
}

// downsampleShapes are the resamplings the differential test and the
// benchmark share: the exact integer factors, the shapes the benchmark
// workloads ask for, and the edge cases of the span arithmetic.
var downsampleShapes = []struct {
	name                   string
	srcW, srcH, dstW, dstH int
}{
	{"2x", 240, 160, 120, 80},
	{"4x", 240, 160, 60, 40},
	{"tuned_240x160_71x47", 240, 160, 71, 47},
	{"dense_320x180_224x126", 320, 180, 224, 126},
	{"one_row", 240, 160, 120, 1},
	{"one_column", 240, 160, 1, 80},
	{"one_pixel", 240, 160, 1, 1},
	{"prime", 251, 127, 97, 53},
	{"prime_near", 251, 127, 250, 126},
	{"mixed_3x_2x", 96, 64, 32, 32},
	{"upsample", 60, 40, 240, 160},
	{"upsample_prime", 13, 7, 31, 29},
	{"up_x_down_y", 60, 160, 240, 40},
	{"same_size", 64, 48, 64, 48},
	{"from_one_pixel", 1, 1, 5, 3},
}

func TestDownsampleMatchesReference(t *testing.T) {
	for _, s := range downsampleShapes {
		f := noiseFrame(s.srcW, s.srcH, uint64(s.srcW*31+s.dstW))
		got := f.Downsample(s.dstW, s.dstH)
		want := referenceDownsample(f, s.dstW, s.dstH)
		if got.W != want.W || got.H != want.H || got.NomW != want.NomW || got.NomH != want.NomH {
			t.Errorf("%s: geometry %dx%d (nominal %dx%d), want %dx%d (%dx%d)", s.name,
				got.W, got.H, got.NomW, got.NomH, want.W, want.H, want.NomW, want.NomH)
			continue
		}
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("%s: %dx%d -> %dx%d differs from the reference", s.name, s.srcW, s.srcH, s.dstW, s.dstH)
		}
		// The 64-bit instantiation serves spans over 1<<24 source pixels,
		// which no test frame reaches; run it on the same shapes.
		wide := NewFrame(s.dstW, s.dstH, f.NomW, f.NomH)
		boxFilter[uint64](wide, f)
		if !bytes.Equal(wide.Pix, want.Pix) {
			t.Errorf("%s: 64-bit sums differ from the reference", s.name)
		}
	}
	// A row band whose 32-bit running sum wraps (300 rows x 70000 columns
	// of bright pixels pass 2^32) while every span's own sum still fits.
	wrap := NewFrame(70000, 300, 70000, 300)
	for i := range wrap.Pix {
		wrap.Pix[i] = uint8(200 + i%56)
	}
	if got := wrap.Downsample(100, 1); !bytes.Equal(got.Pix, referenceDownsample(wrap, 100, 1).Pix) {
		t.Error("wrapped running sum: 70000x300 -> 100x1 differs from the reference")
	}
	// Saturated planes: the largest sums the accumulators see.
	for _, v := range []uint8{0, 255} {
		f := NewFrame(320, 180, 1280, 720)
		for i := range f.Pix {
			f.Pix[i] = v
		}
		if got := f.Downsample(7, 3); !bytes.Equal(got.Pix, referenceDownsample(f, 7, 3).Pix) {
			t.Errorf("constant %d plane differs from the reference", v)
		}
	}
}

// FuzzDownsample checks Downsample against the reference loop on arbitrary
// source and target sizes. Each size is folded into 1..320, which covers
// the workload shapes and every span pattern (up, down, mixed, 1-wide)
// while one input stays under a millisecond. The committed corpus is in
// testdata/fuzz/FuzzDownsample.
func FuzzDownsample(f *testing.F) {
	for _, s := range downsampleShapes {
		f.Add(uint16(s.srcW-1), uint16(s.srcH-1), uint16(s.dstW-1), uint16(s.dstH-1), uint64(1))
	}
	f.Fuzz(func(t *testing.T, srcW, srcH, w, h uint16, seed uint64) {
		sw, sh := int(srcW)%320+1, int(srcH)%320+1
		dw, dh := int(w)%320+1, int(h)%320+1
		src := noiseFrame(sw, sh, seed)
		got := src.Downsample(dw, dh)
		want := referenceDownsample(src, dw, dh)
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("%dx%d -> %dx%d (seed %d) differs from the reference", sw, sh, dw, dh, seed)
		}
	})
}

var sinkFrame *Frame

// BenchmarkDownsample reports ns per *source* pixel, the unit the ledger's
// video.downsample_ns_per_px uses.
func BenchmarkDownsample(b *testing.B) {
	perSourcePixel := func(b *testing.B, f *Frame) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f.W*f.H), "ns/srcpx")
	}
	for _, s := range downsampleShapes[:4] {
		b.Run(s.name, func(b *testing.B) {
			f := noiseFrame(s.srcW, s.srcH, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkFrame = f.Downsample(s.dstW, s.dstH)
			}
			perSourcePixel(b, f)
		})
	}
	// What the exact-2x loop is worth: the same reduction through the
	// general filter.
	b.Run("2x_by_boxFilter", func(b *testing.B) {
		f := noiseFrame(240, 160, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkFrame = NewFrame(120, 80, f.NomW, f.NomH)
			boxFilter[uint32](sinkFrame, f)
		}
		perSourcePixel(b, f)
	})
	// The loop Downsample replaced.
	b.Run("2x_reference", func(b *testing.B) {
		f := noiseFrame(240, 160, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkFrame = referenceDownsample(f, 120, 80)
		}
		perSourcePixel(b, f)
	})
}
