package proxy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"otif/internal/costmodel"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/video"
)

// referenceFeatures is the float loop forEachCell ran before it went
// table-driven: cell edges recomputed per frame, float sums, and
// |v - b - offset| evaluated per pixel. It is the oracle the integer path
// must match bit for bit.
func referenceFeatures(m *Model, frame *video.Frame, bg *detect.BackgroundModel) []float64 {
	aw, ah := m.analysisSize(frame)
	img := frame.Downsample(aw, ah)
	var bgImg *video.Frame
	var offset float64
	if bg != nil {
		bgImg = bg.Frame().Downsample(aw, ah)
		imgMean, _ := img.MeanStd(geom.Rect{})
		bgMean, _ := bgImg.MeanStd(geom.Rect{})
		offset = imgMean - bgMean
	}
	gw, gh := GridDims(frame.NomW, frame.NomH)
	sx := float64(aw) / float64(frame.NomW)
	sy := float64(ah) / float64(frame.NomH)
	out := make([]float64, 0, gw*gh*featuresPerCell)
	for cy := 0; cy < gh; cy++ {
		y0 := min(max(int(float64(cy*CellSize)*sy), 0), ah-1)
		y1 := min(max(int(math.Ceil(float64((cy+1)*CellSize)*sy)), y0+1), ah)
		for cx := 0; cx < gw; cx++ {
			x0 := min(max(int(float64(cx*CellSize)*sx), 0), aw-1)
			x1 := min(max(int(math.Ceil(float64((cx+1)*CellSize)*sx)), x0+1), aw)
			var sum, sum2, sumDiff, maxDiff float64
			n := 0
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					v := float64(img.Pix[y*aw+x])
					sum += v
					sum2 += v * v
					if bgImg != nil {
						d := math.Abs(v - float64(bgImg.Pix[y*aw+x]) - offset)
						sumDiff += d
						if d > maxDiff {
							maxDiff = d
						}
					}
					n++
				}
			}
			mean := sum / float64(n)
			variance := sum2/float64(n) - mean*mean
			if variance < 0 {
				variance = 0
			}
			out = append(out, math.Sqrt(variance)/32, sumDiff/float64(n)/48, maxDiff/64, mean/255)
		}
	}
	return out
}

// randomPlane returns a w x h frame of noise around a base level.
func randomPlane(rng *rand.Rand, w, h, nomW, nomH, base, spread int) *video.Frame {
	f := video.NewFrame(w, h, nomW, nomH)
	for i := range f.Pix {
		f.Pix[i] = uint8(min(255, max(0, base+rng.Intn(2*spread+1)-spread)))
	}
	return f
}

// requireSameBits fails unless the two feature matrices are equal bit for
// bit.
func requireSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d features, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: feature %d of cell %d = %v, want %v", label,
				i%featuresPerCell, i/featuresPerCell, got[i], want[i])
		}
	}
}

func TestFeaturesMatchFloatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	geoms := []struct{ w, h, nomW, nomH, resW, resH int }{
		{240, 160, 720, 480, 360, 240}, // extract-tuned's proxy: an exact 2x analysis plane
		{240, 160, 720, 480, 136, 90},  // fractional cell edges: spans overlap by a pixel
		{320, 180, 1280, 720, 480, 270},
		{37, 23, 100, 70, 51, 33}, // grid that does not divide the frame
		{8, 8, 64, 64, 2, 2},      // clamped to the 2x2 minimum, cells share pixels
	}
	for _, g := range geoms {
		m := NewModel(g.resW, g.resH, rng)
		for trial := 0; trial < 6; trial++ {
			// Base levels apart by up to 100 grey levels exercise offsets of
			// both signs and every table region, saturated pixels included.
			frame := randomPlane(rng, g.w, g.h, g.nomW, g.nomH, 40+rng.Intn(180), 5+rng.Intn(90))
			var bg *detect.BackgroundModel
			if trial > 0 { // trial 0: no background at all
				bg = detect.NewBackgroundModel(randomPlane(rng, g.w, g.h, g.nomW, g.nomH, 40+rng.Intn(180), 5+rng.Intn(90)))
			}
			requireSameBits(t, fmt.Sprintf("%+v trial %d", g, trial), m.Features(frame, bg, nil), referenceFeatures(m, frame, bg))
		}
	}
}

// TestSpansFollowGeometry checks that the table kept on the model is
// rebuilt when a frame of another geometry arrives, not reused.
func TestSpansFollowGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewModel(360, 240, rng)
	a := randomPlane(rng, 240, 160, 720, 480, 120, 40)
	b := randomPlane(rng, 320, 180, 1280, 720, 120, 40)
	for _, f := range []*video.Frame{a, b, a} {
		requireSameBits(t, fmt.Sprintf("%dx%d", f.W, f.H), m.Features(f, nil, nil), referenceFeatures(m, f, nil))
	}
}

func scoreFixture() (*Model, *video.Frame, *detect.BackgroundModel) {
	rng := rand.New(rand.NewSource(11))
	m := NewModel(360, 240, rng)
	frame := randomPlane(rng, 240, 160, 720, 480, 120, 40)
	bg := detect.NewBackgroundModel(randomPlane(rng, 240, 160, 720, 480, 110, 10))
	return m, frame, bg
}

// TestScoreAllocGate pins the two halves of Score. A cache hit allocates
// nothing. The fill allocates exactly the slice it returns: the cell-span
// tables live on the model and the difference table on the stack, so a
// second allocation means one of them is being rebuilt per frame.
func TestScoreAllocGate(t *testing.T) {
	m, frame, bg := scoreFixture()
	acct := costmodel.NewAccountant()
	m.Score(frame, bg, acct) // fill the frame cache and the span table
	if n := testing.AllocsPerRun(50, func() { m.Score(frame, bg, acct) }); n != 0 {
		t.Errorf("a cached Score allocates %v times per frame, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { m.score(frame, bg) }); n != 1 {
		t.Errorf("scoring a frame allocates %v times, want 1 (the returned scores)", n)
	}
}

var sinkScores []float64

// BenchmarkProxyScore scores one 240x160 frame at extract-tuned's proxy
// resolution with the downsamples already cached. fill is the feature loop
// and the logistic readout, what a frame scored for the first time costs;
// hit is Score answering a frame it has scored before from the frame cache.
func BenchmarkProxyScore(b *testing.B) {
	m, frame, bg := scoreFixture()
	acct := costmodel.NewAccountant()
	m.Score(frame, bg, acct)
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkScores = m.score(frame, bg)
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkScores = m.Score(frame, bg, acct)
		}
	})
}

// TestSpansConcurrent scores frames of two geometries from several
// goroutines through one model, as parallel clip workers do: the span
// table kept on the model is swapped under them and every score must
// still be the serial one. Run with -race.
func TestSpansConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewModel(360, 240, rng)
	frames := []*video.Frame{
		randomPlane(rng, 240, 160, 720, 480, 120, 40),
		randomPlane(rng, 320, 180, 1280, 720, 120, 40),
	}
	want := [][]float64{m.Features(frames[0], nil, nil), m.Features(frames[1], nil, nil)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % 2
				if got := m.Features(frames[k], nil, nil); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d pass %d: features of frame %d differ from the serial run", g, i, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
