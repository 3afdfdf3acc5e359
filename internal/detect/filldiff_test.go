package detect

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"otif/internal/costmodel"
	"otif/internal/geom"
	"otif/internal/video"
)

// referenceFillDiff is the float expression fillDiff evaluated per pixel
// before the difference came from a table. It is the oracle the table path
// must match bit for bit.
func referenceFillDiff(diff []float64, mask []bool, img, bg *video.Frame, offset, thresh float64, aw, x0, x1, y0, y1 int) {
	for y := y0; y < y1; y++ {
		ip := img.Pix[y*aw : (y+1)*aw]
		bp := bg.Pix[y*aw : (y+1)*aw]
		dr := diff[y*aw : (y+1)*aw]
		mr := mask[y*aw : (y+1)*aw]
		for x := x0; x < x1; x++ {
			dv := float64(ip[x]) - float64(bp[x]) - offset
			if dv < 0 {
				dv = -dv
			}
			dr[x] = dv
			if dv > thresh {
				mr[x] = true
			}
		}
	}
}

func noisePlane(rng *rand.Rand, w, h int) *video.Frame {
	f := video.NewFrame(w, h, w*4, h*4)
	for i := range f.Pix {
		f.Pix[i] = uint8(rng.Intn(256))
	}
	return f
}

func TestFillDiffMatchesFloatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const aw, ah = 71, 47
	windows := [][4]int{ // x0, x1, y0, y1
		{0, aw, 0, ah},          // whole plane
		{10, 30, 5, 20},         // interior
		{60, aw, 40, ah},        // clipped at the right and bottom edges
		{0, 1, 0, ah},           // one column at the left edge
		{aw - 1, aw, 0, 1},      // the last pixel of the first row
		{20, 20, 3, 9},          // empty in x
		{20, 40, ah, ah},        // empty in y, at the bottom edge
		{0, aw, ah - 1, ah},     // last row
		{aw / 2, aw, 0, ah / 2}, // top-right quadrant
	}
	offsets := []float64{0, 0.5, -0.5, 3, -3, 254.999, -255, 255, 300, -1e-9}
	for i := 0; i < 20; i++ {
		offsets = append(offsets, (rng.Float64()-0.5)*2*float64(rng.Intn(260)))
	}
	for _, offset := range offsets {
		img, bg := noisePlane(rng, aw, ah), noisePlane(rng, aw, ah)
		var tab video.DiffTable
		tab.Fill(offset)
		for _, thresh := range []float64{16, 22} {
			for _, w := range windows {
				got, gotMask := make([]float64, aw*ah), make([]bool, aw*ah)
				want, wantMask := make([]float64, aw*ah), make([]bool, aw*ah)
				fillDiff(got, gotMask, img, bg, &tab, thresh, aw, w[0], w[1], w[2], w[3])
				referenceFillDiff(want, wantMask, img, bg, offset, thresh, aw, w[0], w[1], w[2], w[3])
				for p := range want {
					if math.Float64bits(got[p]) != math.Float64bits(want[p]) || gotMask[p] != wantMask[p] {
						t.Fatalf("offset %v thresh %v window %v: pixel (%d,%d) = %v/%v, want %v/%v",
							offset, thresh, w, p%aw, p/aw, got[p], gotMask[p], want[p], wantMask[p])
					}
				}
			}
		}
	}
}

// TestReusedScratchMatchesFresh runs one detector over frames and windows
// that differ from call to call and checks every result against a detector
// that has never run: the difference plane is not cleared between calls
// and the difference table is kept across them, so anything stale that
// could be read would show here. One window overhangs the frame.
func TestReusedScratchMatchesFresh(t *testing.T) {
	ds, bg := harness(t)
	for _, arch := range []Arch{ArchYOLO, ArchRCNN} {
		reused := detectorFor(ds, bg, arch, 1.0, costmodel.NewAccountant())
		ct := ds.Val[0]
		bounds := ct.Clip.Frame(0).Bounds()
		nonEmpty := 0
		for f := 0; f < ct.Clip.Len(); f += 4 {
			frame := ct.Clip.Frame(f)
			shift := float64(f % 7 * 40)
			windows := []geom.Rect{
				{X: shift, Y: 120, W: 260, H: 140},
				{X: bounds.W - 150 - shift/2, Y: 200, W: 400, H: 200}, // past the right edge
				{X: 0, Y: bounds.H - 90, W: 300, H: 200},              // past the bottom edge
			}
			fresh := detectorFor(ds, bg, arch, 1.0, costmodel.NewAccountant())
			var got, want []Detection
			if f%8 == 0 {
				got, want = reused.Detect(frame, f), fresh.Detect(frame, f)
			} else {
				got, want = reused.DetectWindows(frame, f, windows), fresh.DetectWindows(frame, f, windows)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s frame %d: reused detector found %v, a fresh one %v", arch, f, got, want)
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty == 0 {
			t.Fatalf("%s: no frame produced a detection; the comparison is vacuous", arch)
		}
	}
}

// BenchmarkFillDiff fills extract-dense's 224x126 analysis plane, mostly
// background with a few objects, through the table and through the float
// expression it replaced.
func BenchmarkFillDiff(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const aw, ah = 224, 126
	img, bg := video.NewFrame(aw, ah, 4*aw, 4*ah), video.NewFrame(aw, ah, 4*aw, 4*ah)
	for i := range bg.Pix {
		bg.Pix[i] = uint8(100 + rng.Intn(40))
		img.Pix[i] = bg.Pix[i] + uint8(rng.Intn(11))
	}
	for k := 0; k < 6; k++ {
		x0, y0 := rng.Intn(aw-10), rng.Intn(ah-6)
		for y := y0; y < y0+6; y++ {
			for x := x0; x < x0+10; x++ {
				img.Pix[y*aw+x] = bg.Pix[y*aw+x] + 60
			}
		}
	}
	diff, mask := make([]float64, aw*ah), make([]bool, aw*ah)
	perPixel := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(aw*ah), "ns/px")
	}
	b.Run("table", func(b *testing.B) {
		var tab video.DiffTable
		for i := 0; i < b.N; i++ {
			tab.Fill(float64(i%7) + 1.75)
			fillDiff(diff, mask, img, bg, &tab, 16, aw, 0, aw, 0, ah)
		}
		perPixel(b)
	})
	b.Run("float_reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			referenceFillDiff(diff, mask, img, bg, float64(i%7)+1.75, 16, aw, 0, aw, 0, ah)
		}
		perPixel(b)
	})
}
