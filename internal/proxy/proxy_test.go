package proxy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"otif/internal/costmodel"
	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/video"
)

func TestGridBasics(t *testing.T) {
	g := NewGrid(1280, 720)
	if g.W != 40 || g.H != 23 {
		t.Fatalf("grid %dx%d, want 40x23", g.W, g.H)
	}
	g.Set(3, 4, true)
	if !g.At(3, 4) {
		t.Error("Set/At roundtrip")
	}
	if g.Count() != 1 {
		t.Errorf("Count = %d", g.Count())
	}
}

func TestCellRect(t *testing.T) {
	r := CellRect(2, 3)
	if r.X != 64 || r.Y != 96 || r.W != 32 || r.H != 32 {
		t.Errorf("CellRect = %v", r)
	}
}

func TestTruthGridMarksIntersectingCells(t *testing.T) {
	g := TruthGrid(320, 320, []geom.Rect{{X: 30, Y: 30, W: 40, H: 10}})
	// Box spans x in [30,70) -> cells 0..2, y in [30,40) -> cells 0..1.
	for cy := 0; cy < g.H; cy++ {
		for cx := 0; cx < g.W; cx++ {
			want := cx <= 2 && cy <= 1
			if g.At(cx, cy) != want {
				t.Errorf("cell (%d,%d) = %v, want %v", cx, cy, g.At(cx, cy), want)
			}
		}
	}
	if TruthGrid(320, 320, nil).Count() != 0 {
		t.Error("no boxes should mark no cells")
	}
}

func TestTruthGridCoversBoxesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var boxes []geom.Rect
		for i := 0; i < rng.Intn(5)+1; i++ {
			boxes = append(boxes, geom.Rect{
				X: rng.Float64() * 280, Y: rng.Float64() * 280,
				W: rng.Float64()*60 + 5, H: rng.Float64()*60 + 5,
			})
		}
		g := TruthGrid(320, 320, boxes)
		// Every box center cell must be positive.
		for _, b := range boxes {
			c := b.Center()
			cx := min(max(int(c.X)/CellSize, 0), g.W-1)
			cy := min(max(int(c.Y)/CellSize, 0), g.H-1)
			if !g.At(cx, cy) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func proxyHarness(t *testing.T) (*dataset.Instance, *detect.BackgroundModel, *Model) {
	t.Helper()
	ds, err := dataset.Build("warsaw", dataset.SetSpec{Clips: 2, ClipSeconds: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var frames []*video.Frame
	for _, ct := range ds.Train {
		for i := 0; i < ct.Clip.Len(); i += 10 {
			frames = append(frames, ct.Clip.Frame(i))
		}
	}
	bg := detect.TrainBackground(frames)

	rng := rand.New(rand.NewSource(1))
	res := DefaultResolutions(ds.Cfg.NomW, ds.Cfg.NomH)[1]
	m := NewModel(res[0], res[1], rng)

	// Train on oracle boxes (stand-in for theta_best detections).
	var examples []TrainExample
	for _, ct := range ds.Train {
		for f := 0; f < ct.Clip.Len(); f += 8 {
			var boxes []geom.Rect
			for _, gt := range ct.Truth(f) {
				boxes = append(boxes, gt.Box)
			}
			examples = append(examples, TrainExample{Frame: ct.Clip.Frame(f), Boxes: boxes})
		}
	}
	m.Train(examples, bg, 10, rng, costmodel.NewAccountant())
	return ds, bg, m
}

func TestProxyModelDiscriminates(t *testing.T) {
	ds, bg, m := proxyHarness(t)
	ct := ds.Val[0]
	var posSum, negSum float64
	var nPos, nNeg int
	for f := 0; f < ct.Clip.Len(); f += 10 {
		frame := ct.Clip.Frame(f)
		scores := m.Score(frame, bg, costmodel.NewAccountant())
		var boxes []geom.Rect
		for _, gt := range ct.Truth(f) {
			boxes = append(boxes, gt.Box)
		}
		truth := TruthGrid(ds.Cfg.NomW, ds.Cfg.NomH, boxes)
		for i, s := range scores {
			if truth.Pos[i] {
				posSum += s
				nPos++
			} else {
				negSum += s
				nNeg++
			}
		}
	}
	if nPos == 0 || nNeg == 0 {
		t.Skip("degenerate clip")
	}
	posMean := posSum / float64(nPos)
	negMean := negSum / float64(nNeg)
	if posMean < negMean+0.2 {
		t.Errorf("proxy does not discriminate: pos %v neg %v", posMean, negMean)
	}
}

func TestProxyCostCharged(t *testing.T) {
	ds, bg, m := proxyHarness(t)
	acct := costmodel.NewAccountant()
	m.Score(ds.Val[0].Clip.Frame(0), bg, acct)
	want := costmodel.ProxyCost(m.ResW, m.ResH)
	if got := acct.Get(costmodel.OpProxy); got != want {
		t.Errorf("proxy cost = %v, want %v", got, want)
	}
}

func TestThreshold(t *testing.T) {
	scores := make([]float64, NewGrid(320, 320).W*NewGrid(320, 320).H)
	scores[0] = 0.9
	scores[1] = 0.3
	g := Threshold(320, 320, scores, 0.5)
	if !g.Pos[0] || g.Pos[1] {
		t.Error("thresholding wrong")
	}
}

func TestDefaultResolutionsDescending(t *testing.T) {
	res := DefaultResolutions(1280, 720)
	if len(res) != 5 {
		t.Fatalf("got %d resolutions, want 5 (per the paper)", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i][0] >= res[i-1][0] {
			t.Error("resolutions must descend")
		}
	}
	for _, r := range res {
		if r[0]%2 != 0 || r[1]%2 != 0 {
			t.Errorf("resolution %v not even", r)
		}
	}
}
