package detect

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"otif/internal/costmodel"
	"otif/internal/geom"
	"otif/internal/video"
)

// referenceFillDiff is the float expression the detector evaluated per
// pixel before the difference came from a table: the difference plane and
// its threshold mask inside the window. It is the oracle the table and the
// foreground list must match bit for bit.
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

// referenceComponents is the labelling the detector ran before it kept a
// foreground list: a clear of the label plane and a scan over the whole
// mask, with the same DFS. It is the oracle connectedComponentsInto must
// match component for component.
func referenceComponents(mask []bool, diff []float64, w, h int) []component {
	labels := make([]int32, w*h)
	var comps []component
	var stack []int
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
			c.minX, c.maxX = min(c.minX, x), max(c.maxX, x)
			c.minY, c.maxY = min(c.minY, y), max(c.maxY, y)
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
	return comps
}

func noisePlane(rng *rand.Rand, w, h int) *video.Frame {
	f := video.NewFrame(w, h, w*4, h*4)
	for i := range f.Pix {
		f.Pix[i] = uint8(rng.Intn(256))
	}
	return f
}

// blobPlanes is a background of noise and an image that departs from it
// by up to ±60 grey levels on a share density of its pixels and by at most
// ±4 elsewhere, so that both thresholds find foreground of about that
// density.
func blobPlanes(rng *rand.Rand, w, h int, density float64) (img, bg *video.Frame) {
	img, bg = video.NewFrame(w, h, w*4, h*4), video.NewFrame(w, h, w*4, h*4)
	for i := range bg.Pix {
		b := 60 + rng.Intn(136)
		d := rng.Intn(9) - 4
		if rng.Float64() < density {
			d = 60 - rng.Intn(121)
		}
		bg.Pix[i], img.Pix[i] = uint8(b), uint8(b+d)
	}
	return img, bg
}

// assertLabelsZero fails unless the scratch's label plane is all zero, the
// invariant every call must leave behind.
func assertLabelsZero(t testing.TB, s *analyzeScratch, what string) {
	t.Helper()
	for p, l := range s.labels {
		if l != 0 {
			t.Fatalf("%s: labels[%d] = %d after the call, want the plane all zero", what, p, l)
		}
	}
}

// checkComponents runs mark and connectedComponentsInto on one region of
// a plane through s and compares them with the float oracle and the plane
// scan: the foreground list, every difference inside the region by
// math.Float64bits, and every component's count, extents and sumDiff.
func checkComponents(t testing.TB, s *analyzeScratch, img, bg *video.Frame, offset, thresh float64, x0, x1, y0, y1 int) {
	t.Helper()
	w, h := img.W, img.H
	diff, mask := make([]float64, w*h), make([]bool, w*h)
	referenceFillDiff(diff, mask, img, bg, offset, thresh, w, x0, x1, y0, y1)
	want := referenceComponents(mask, diff, w, h)

	s.fillTables(offset, thresh)
	s.mark(img.Pix, bg.Pix, w, x0, x1, y0, y1)
	what := func() string {
		return fmt.Sprintf("plane %dx%d region [%d,%d)x[%d,%d) offset %v thresh %v", w, h, x0, x1, y0, y1, offset, thresh)
	}
	k := 0
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			p := y*w + x
			if got := s.tab.At(img.Pix[p], bg.Pix[p]); math.Float64bits(got) != math.Float64bits(diff[p]) {
				t.Fatalf("%s: pixel (%d,%d) difference %v, want %v", what(), x, y, got, diff[p])
			}
			if !mask[p] {
				continue
			}
			if k >= len(s.fg) || s.fg[k] != int32(p) {
				t.Fatalf("%s: foreground entry %d is not pixel (%d,%d): %v", what(), k, x, y, s.fg)
			}
			k++
		}
	}
	if k != len(s.fg) {
		t.Fatalf("%s: %d foreground pixels listed, want %d", what(), len(s.fg), k)
	}
	got := connectedComponentsInto(s, img.Pix, bg.Pix, w, h)
	if len(got) != len(want) {
		t.Fatalf("%s: %d components, want %d", what(), len(got), len(want))
	}
	for i := range want {
		g, r := got[i], want[i]
		if g.count != r.count || g.minX != r.minX || g.maxX != r.maxX || g.minY != r.minY || g.maxY != r.maxY ||
			math.Float64bits(g.sumDiff) != math.Float64bits(r.sumDiff) {
			t.Fatalf("%s: component %d = %+v, want %+v", what(), i, g, r)
		}
	}
	assertLabelsZero(t, s, what())
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
	// One scratch throughout: the tables are refilled only when the
	// offset or the threshold changes, and the labels must come back
	// zero from every call.
	var s analyzeScratch
	for _, offset := range offsets {
		img, bg := noisePlane(rng, aw, ah), noisePlane(rng, aw, ah)
		for _, thresh := range []float64{16, 22} {
			for _, w := range windows {
				checkComponents(t, &s, img, bg, offset, thresh, w[0], w[1], w[2], w[3])
			}
		}
	}
}

// TestComponentsMatchPlaneScan holds the labelling from the foreground
// list to the plane scan it replaced, on sparse and dense planes, on
// degenerate plane shapes and on regions against every edge, reusing one
// scratch across all of them.
func TestComponentsMatchPlaneScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 9}, {9, 2}, {2, 2}, {37, 23}, {224, 126}}
	var s analyzeScratch
	for _, sh := range shapes {
		w, h := sh[0], sh[1]
		regions := [][4]int{
			{0, w, 0, h},
			{0, w/2 + 1, 0, h},               // left edge
			{w / 2, w, 0, h},                 // right edge
			{0, w, 0, h/2 + 1},               // top edge
			{0, w, h / 2, h},                 // bottom edge
			{w / 3, w - w/3, h / 3, h - h/3}, // interior (or whole, when tiny)
		}
		for _, density := range []float64{0.02, 0.1, 0.5, 0.95} {
			img, bg := blobPlanes(rng, w, h, density)
			offset := (rng.Float64() - 0.5) * 6
			for _, thresh := range []float64{16, 22} {
				for _, r := range regions {
					checkComponents(t, &s, img, bg, offset, thresh, r[0], r[1], r[2], r[3])
				}
			}
		}
	}
}

// FuzzComponents compares the foreground list and its labelling with the
// float oracle and the plane scan on arbitrary plane shapes, regions,
// densities, offsets and thresholds. The committed corpus lives in
// testdata/fuzz/FuzzComponents.
func FuzzComponents(f *testing.F) {
	var s analyzeScratch
	f.Fuzz(func(t *testing.T, w, h, x0, x1, y0, y1, density uint8, offset int16, thresh uint8, seed uint64) {
		pw, ph := int(w)%64+1, int(h)%64+1
		rx0, rx1 := int(x0)%(pw+1), int(x1)%(pw+1)
		ry0, ry1 := int(y0)%(ph+1), int(y1)%(ph+1)
		if rx1 < rx0 {
			rx0, rx1 = rx1, rx0
		}
		if ry1 < ry0 {
			ry0, ry1 = ry1, ry0
		}
		img, bg := blobPlanes(rand.New(rand.NewSource(int64(seed))), pw, ph, float64(density)/255)
		checkComponents(t, &s, img, bg, float64(offset)/64, float64(thresh), rx0, rx1, ry0, ry1)
	})
}

// TestReusedScratchMatchesFresh runs detectors over frames and windows
// that differ from call to call and checks every result against a detector
// that has never run. All of them share one pooled scratch: YOLO and RCNN,
// at two resolutions each, so consecutive calls alternate analysis
// geometry, threshold and full-frame/windowed regions. The label plane is
// never cleared, only its foreground reset, and the tables are kept across
// calls, so anything stale that could be read would show here; the labels
// must be all zero after every call. One window overhangs the frame.
func TestReusedScratchMatchesFresh(t *testing.T) {
	ds, bg := harness(t)
	shared := getAnalyzeScratch(1)
	defer putAnalyzeScratch(shared)
	type variant struct {
		arch  Arch
		scale float64
	}
	variants := []variant{{ArchYOLO, 1.0}, {ArchRCNN, 1.0}, {ArchYOLO, 0.6}, {ArchRCNN, 0.7}}
	reused := make([]*Detector, len(variants))
	for i, v := range variants {
		reused[i] = detectorFor(ds, bg, v.arch, v.scale, costmodel.NewAccountant())
		reused[i].scratch = shared
	}
	ct := ds.Val[0]
	bounds := ct.Clip.Frame(0).Bounds()
	nonEmpty := map[Arch]int{}
	for f := 0; f < ct.Clip.Len(); f += 4 {
		frame := ct.Clip.Frame(f)
		shift := float64(f % 7 * 40)
		windows := []geom.Rect{
			{X: shift, Y: 120, W: 260, H: 140},
			{X: bounds.W - 150 - shift/2, Y: 200, W: 400, H: 200}, // past the right edge
			{X: 0, Y: bounds.H - 90, W: 300, H: 200},              // past the bottom edge
		}
		for i, v := range variants {
			fresh := detectorFor(ds, bg, v.arch, v.scale, costmodel.NewAccountant())
			var got, want []Detection
			if (f/4+i)%2 == 0 {
				got, want = reused[i].Detect(frame, f), fresh.Detect(frame, f)
			} else {
				got, want = reused[i].DetectWindows(frame, f, windows), fresh.DetectWindows(frame, f, windows)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s@%v frame %d: reused detector found %v, a fresh one %v", v.arch, v.scale, f, got, want)
			}
			assertLabelsZero(t, shared, fmt.Sprintf("%s@%v frame %d", v.arch, v.scale, f))
			if len(want) > 0 {
				nonEmpty[v.arch]++
			}
		}
	}
	for _, arch := range []Arch{ArchYOLO, ArchRCNN} {
		if nonEmpty[arch] == 0 {
			t.Fatalf("%s: no frame produced a detection; the comparison is vacuous", arch)
		}
	}
}

// benchScene is extract-dense's analysis plane, 224x126, at a quarter of
// its nominal size: a noisy background, an image that follows it within a
// few grey levels, and six 10x6 objects 60 levels brighter. windows are
// three 40x30-pixel windows around objects, 12.8% of the plane, about the
// share the proxy leaves the detector on extract-tuned.
func benchScene() (frame *video.Frame, bg *BackgroundModel, windows []geom.Rect) {
	rng := rand.New(rand.NewSource(1))
	const aw, ah = 224, 126
	img, back := video.NewFrame(aw, ah, 4*aw, 4*ah), video.NewFrame(aw, ah, 4*aw, 4*ah)
	for i := range back.Pix {
		back.Pix[i] = uint8(100 + rng.Intn(40))
		img.Pix[i] = back.Pix[i] + uint8(rng.Intn(11))
	}
	for k := 0; k < 6; k++ {
		x0, y0 := 12+k*34, 20+rng.Intn(ah-46)
		for y := y0; y < y0+6; y++ {
			for x := x0; x < x0+10; x++ {
				img.Pix[y*aw+x] = back.Pix[y*aw+x] + 60
			}
		}
		if k%2 == 0 {
			windows = append(windows, geom.Rect{X: float64(4 * (x0 - 15)), Y: float64(4 * (y0 - 12)), W: 160, H: 120})
		}
	}
	return img, NewBackgroundModel(back), windows
}

// BenchmarkDetect runs the RCNN detector over the whole plane and the YOLO
// detector inside the windows, and reports nanoseconds per analysis pixel
// of the regions analyzed. full_rcnn is the fill behind a full-frame
// Detect, what a frame detected for the first time costs; full_hit is
// Detect answering a frame it has detected before from the frame cache.
func BenchmarkDetect(b *testing.B) {
	frame, bg, windows := benchScene()
	perPixel := func(b *testing.B, px int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(px), "ns/px")
	}
	b.Run("full_rcnn", func(b *testing.B) {
		// Width = nominal: the analysis plane is the stored 224x126.
		d := &Detector{Cfg: Config{Arch: ArchRCNN, Width: frame.NomW, Height: frame.NomH, ConfThresh: 0.25}, Background: bg}
		defer d.Release()
		d.Detect(frame, 0) // grow the scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.detect(frame)
		}
		perPixel(b, frame.W*frame.H)
	})
	b.Run("full_hit", func(b *testing.B) {
		d := &Detector{Cfg: Config{Arch: ArchRCNN, Width: frame.NomW, Height: frame.NomH, ConfThresh: 0.25},
			Background: bg, Arena: GetArena()}
		defer d.Arena.Release()
		defer d.Release()
		d.Detect(frame, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Arena.slabs[0], d.Arena.cur = d.Arena.slabs[0][:0], 0
			d.Detect(frame, i)
		}
	})
	b.Run("windows_yolo", func(b *testing.B) {
		// Twice the nominal width, so YOLO's halved grid is 224x126 too.
		d := &Detector{Cfg: Config{Arch: ArchYOLO, Width: 2 * frame.NomW, Height: 2 * frame.NomH, ConfThresh: 0.25}, Background: bg}
		defer d.Release()
		d.DetectWindows(frame, 0, windows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.DetectWindows(frame, i, windows)
		}
		px := 0
		for _, w := range windows {
			px += int(w.W/4) * int(w.H/4)
		}
		perPixel(b, px)
	})
}
