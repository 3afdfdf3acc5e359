package detect

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"otif/internal/costmodel"
	"otif/internal/dataset"
	"otif/internal/geom"
	"otif/internal/video"
)

// harness builds a small caldot1-like scene with a trained background.
func harness(t *testing.T) (*dataset.Instance, *BackgroundModel) {
	t.Helper()
	ds, err := dataset.Build("caldot1", dataset.SetSpec{Clips: 2, ClipSeconds: 4}, 11)
	if err != nil {
		t.Fatal(err)
	}
	var frames []*video.Frame
	for _, ct := range ds.Train {
		for i := 0; i < ct.Clip.Len(); i += ct.Clip.Len()/5 + 1 {
			frames = append(frames, ct.Clip.Frame(i))
		}
	}
	return ds, TrainBackground(frames)
}

func detectorFor(ds *dataset.Instance, bg *BackgroundModel, arch Arch, scale float64, acct *costmodel.Accountant) *Detector {
	return &Detector{
		Cfg: Config{
			Arch:  arch,
			Width: int(float64(ds.Cfg.NomW) * scale), Height: int(float64(ds.Cfg.NomH) * scale),
			ConfThresh: 0.25,
		},
		Background: bg,
		Classify:   SizeClassifier{BusMinArea: 3000},
		Acct:       acct,
	}
}

// matchStats counts ground-truth recall and detection precision at IoU 0.3
// across sampled frames of a clip.
func matchStats(ds *dataset.Instance, det *Detector) (recall, precision float64) {
	ct := ds.Val[0]
	var matched, nGT, nDet, detMatched int
	for f := 0; f < ct.Clip.Len(); f += 5 {
		frame := ct.Clip.Frame(f)
		dets := det.Detect(frame, f)
		gts := ct.Truth(f)
		nGT += len(gts)
		nDet += len(dets)
		for _, g := range gts {
			for _, d := range dets {
				if d.Box.IoU(g.Box) >= 0.3 {
					matched++
					break
				}
			}
		}
		for _, d := range dets {
			for _, g := range gts {
				if d.Box.IoU(g.Box) >= 0.3 {
					detMatched++
					break
				}
			}
		}
	}
	if nGT == 0 || nDet == 0 {
		return 0, 0
	}
	return float64(matched) / float64(nGT), float64(detMatched) / float64(nDet)
}

func TestDetectorFindsObjectsAtFullResolution(t *testing.T) {
	ds, bg := harness(t)
	for _, arch := range []Arch{ArchYOLO, ArchRCNN} {
		det := detectorFor(ds, bg, arch, 1.0, costmodel.NewAccountant())
		recall, precision := matchStats(ds, det)
		if recall < 0.85 {
			t.Errorf("%s recall = %v, want >= 0.85", arch, recall)
		}
		if precision < 0.8 {
			t.Errorf("%s precision = %v, want >= 0.8", arch, precision)
		}
	}
}

func TestDetectionCarriesAppearance(t *testing.T) {
	ds, bg := harness(t)
	det := detectorFor(ds, bg, ArchYOLO, 1.0, costmodel.NewAccountant())
	ct := ds.Val[0]
	for f := 0; f < ct.Clip.Len(); f++ {
		dets := det.Detect(ct.Clip.Frame(f), f)
		for _, d := range dets {
			if d.AppMean == 0 && d.AppStd == 0 {
				t.Fatal("detection has no appearance statistics")
			}
			if d.FrameIdx != f {
				t.Fatal("detection frame index wrong")
			}
			return
		}
	}
	t.Skip("no detections found")
}

func TestDetectorCostScalesWithResolutionAndArch(t *testing.T) {
	ds, bg := harness(t)
	ct := ds.Val[0]
	frame := ct.Clip.Frame(0)

	cost := func(arch Arch, scale float64) float64 {
		acct := costmodel.NewAccountant()
		det := detectorFor(ds, bg, arch, scale, acct)
		det.Detect(frame, 0)
		return acct.Get(costmodel.OpDetect)
	}
	if cost(ArchYOLO, 0.5) >= cost(ArchYOLO, 1.0) {
		t.Error("lower resolution must cost less")
	}
	if cost(ArchRCNN, 1.0) <= cost(ArchYOLO, 1.0) {
		t.Error("rcnn must cost more than yolo")
	}
}

func TestDetectWindowsOnlyDetectsInside(t *testing.T) {
	ds, bg := harness(t)
	det := detectorFor(ds, bg, ArchYOLO, 1.0, costmodel.NewAccountant())
	ct := ds.Val[0]
	// Find a frame with a detection.
	for f := 0; f < ct.Clip.Len(); f += 3 {
		frame := ct.Clip.Frame(f)
		full := det.Detect(frame, f)
		if len(full) == 0 {
			continue
		}
		target := full[0].Box
		win := geom.Rect{X: target.X - 30, Y: target.Y - 30, W: target.W + 60, H: target.H + 60}.Clip(frame.Bounds())
		dets := det.DetectWindows(frame, f, []geom.Rect{win})
		found := false
		for _, d := range dets {
			if d.Box.Intersect(win).Empty() {
				t.Error("window detection outside window")
			}
			if d.Box.IoU(target) > 0.3 {
				found = true
			}
		}
		if !found {
			t.Error("windowed detection missed the object inside the window")
		}
		// An empty corner window yields nothing.
		corner := geom.Rect{X: 0, Y: 0, W: 40, H: 40}
		if target.Intersects(corner) {
			return
		}
		for _, d := range det.DetectWindows(frame, f, []geom.Rect{corner}) {
			if d.Box.IoU(target) > 0.3 {
				t.Error("detection leaked outside the requested window")
			}
		}
		return
	}
	t.Skip("no detections found")
}

func TestWindowCostCheaperThanFullFrame(t *testing.T) {
	ds, bg := harness(t)
	frame := ds.Val[0].Clip.Frame(0)
	full := costmodel.NewAccountant()
	det := detectorFor(ds, bg, ArchYOLO, 1.0, full)
	det.Detect(frame, 0)
	win := costmodel.NewAccountant()
	det2 := detectorFor(ds, bg, ArchYOLO, 1.0, win)
	det2.DetectWindows(frame, 0, []geom.Rect{{X: 0, Y: 0, W: 100, H: 100}})
	if win.Get(costmodel.OpDetect) >= full.Get(costmodel.OpDetect) {
		t.Error("small window must cost less than full frame")
	}
}

func TestConfidenceThresholdFilters(t *testing.T) {
	ds, bg := harness(t)
	loose := detectorFor(ds, bg, ArchYOLO, 1.0, costmodel.NewAccountant())
	loose.Cfg.ConfThresh = 0
	strict := detectorFor(ds, bg, ArchYOLO, 1.0, costmodel.NewAccountant())
	strict.Cfg.ConfThresh = 0.9
	ct := ds.Val[0]
	var nLoose, nStrict int
	for f := 0; f < ct.Clip.Len(); f += 5 {
		frame := ct.Clip.Frame(f)
		nLoose += len(loose.Detect(frame, f))
		nStrict += len(strict.Detect(frame, f))
	}
	if nStrict > nLoose {
		t.Errorf("strict threshold found more detections (%d > %d)", nStrict, nLoose)
	}
}

func TestSizeClassifier(t *testing.T) {
	c := SizeClassifier{PedMaxArea: 1200, BusMinArea: 8000}
	if got := c.Classify(geom.Rect{W: 20, H: 50}); got != "pedestrian" {
		t.Errorf("tall small box = %s", got)
	}
	if got := c.Classify(geom.Rect{W: 150, H: 70}); got != "bus" {
		t.Errorf("huge box = %s", got)
	}
	if got := c.Classify(geom.Rect{W: 70, H: 35}); got != "car" {
		t.Errorf("car box = %s", got)
	}
	// Wide small boxes are not pedestrians.
	if got := c.Classify(geom.Rect{W: 50, H: 20}); got != "car" {
		t.Errorf("wide small box = %s", got)
	}
}

func TestTrainBackgroundEmpty(t *testing.T) {
	if TrainBackground(nil) != nil {
		t.Error("empty training set should return nil background")
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two separate blobs, 10 grey levels above the background.
	w, h := 6, 4
	img, bg := video.NewFrame(w, h, w, h), video.NewFrame(w, h, w, h)
	set := func(x, y int) { img.Pix[y*w+x] = 10 }
	set(0, 0)
	set(1, 0)
	set(0, 1)
	set(4, 2)
	set(5, 2)
	var s Scratch
	s.fillTables(0, 5)
	s.mark(img.Pix, bg.Pix, w, 0, w, 0, h)
	comps := connectedComponentsInto(&s, img.Pix, bg.Pix, w, h)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if comps[0].count != 3 || comps[1].count != 2 {
		t.Errorf("component sizes %d, %d", comps[0].count, comps[1].count)
	}
	if comps[0].sumDiff != 30 {
		t.Errorf("sumDiff = %v, want 30", comps[0].sumDiff)
	}
}

func TestDedupe(t *testing.T) {
	a := Detection{Box: geom.Rect{X: 0, Y: 0, W: 10, H: 10}, Score: 0.9}
	b := Detection{Box: geom.Rect{X: 1, Y: 1, W: 10, H: 10}, Score: 0.5} // overlaps a
	c := Detection{Box: geom.Rect{X: 50, Y: 50, W: 10, H: 10}, Score: 0.7}
	out := dedupe([]Detection{a, b, c})
	if len(out) != 2 {
		t.Fatalf("dedupe kept %d, want 2", len(out))
	}
	if out[0].Score != 0.9 {
		t.Error("dedupe must keep the higher-scoring duplicate")
	}
}

// TestDedupeSortKeepsSortSliceOrder holds the dedupe sort to sort.Slice's
// order, which it replaced: detections of equal score must come out in the
// same order, since dedupe keeps the first of two overlapping ones and the
// tracker sees them in that order. Scores repeat heavily (the confidence
// clamps at 1).
func TestDedupeSortKeepsSortSliceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scores := []float64{0.3, 0.5, 0.5, 0.8, 1, 1, 1, 1}
	for n := 0; n < 300; n++ {
		dets := make([]Detection, n)
		for i := range dets {
			dets[i] = Detection{FrameIdx: i, Score: scores[rng.Intn(len(scores))]}
		}
		want := append([]Detection(nil), dets...)
		sort.Slice(want, func(i, j int) bool { return want[i].Score > want[j].Score })
		got := append([]Detection(nil), dets...)
		slices.SortFunc(got, byScoreDesc)
		for i := range want {
			if got[i].FrameIdx != want[i].FrameIdx {
				t.Fatalf("n=%d: position %d holds detection %d, sort.Slice puts %d there", n, i, got[i].FrameIdx, want[i].FrameIdx)
			}
		}
	}
}
