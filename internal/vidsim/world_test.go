package vidsim

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"otif/internal/geom"
)

func testConfig() Config {
	return Config{
		NomW: 320, NomH: 240, SimW: 160, SimH: 120, FPS: 10,
		Lanes: []Lane{{
			Name:      "W->E",
			Path:      geom.Path{{X: -20, Y: 120}, {X: 340, Y: 120}},
			SpawnRate: 0.5,
			SpeedMin:  60, SpeedMax: 120,
		}},
		Sizes: map[Category]SizeSpec{
			Car: {W: 40, H: 20, Jitter: 0.2},
		},
		NoiseStd: 4, FlickerAmp: 2, BGLow: 90, BGHigh: 150,
		ObjContrast: 60, ContrastJit: 0.3,
		BGSeed: 11,
	}
}

func TestWorldDeterministic(t *testing.T) {
	a := NewWorld(testConfig(), 10, 42)
	b := NewWorld(testConfig(), 10, 42)
	if len(a.Objects) != len(b.Objects) {
		t.Fatalf("object counts differ: %d vs %d", len(a.Objects), len(b.Objects))
	}
	fa := a.Render(5)
	fb := b.Render(5)
	for i := range fa.Pix {
		if fa.Pix[i] != fb.Pix[i] {
			t.Fatal("renders differ for identical seeds")
		}
	}
	// Different seeds give different traffic.
	c := NewWorld(testConfig(), 10, 43)
	if len(c.Objects) == len(a.Objects) {
		// Possible but check spawn times differ.
		same := true
		for i := range c.Objects {
			if c.Objects[i].SpawnSec != a.Objects[i].SpawnSec {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traffic")
		}
	}
}

func TestBackgroundSharedAcrossSeeds(t *testing.T) {
	// Clips from the same camera (same BGSeed) must share the background.
	cfg := testConfig()
	cfg.Lanes = nil // no objects
	cfg.NoiseStd = 0
	cfg.FlickerAmp = 0
	a := NewWorld(cfg, 1, 1)
	b := NewWorld(cfg, 1, 999)
	fa := a.Render(0)
	fb := b.Render(0)
	for i := range fa.Pix {
		if fa.Pix[i] != fb.Pix[i] {
			t.Fatal("backgrounds differ across clips of the same camera")
		}
	}
}

func TestGroundTruthMatchesMotion(t *testing.T) {
	w := NewWorld(testConfig(), 20, 7)
	if len(w.Objects) == 0 {
		t.Skip("no objects spawned")
	}
	// Objects on the W->E lane move with increasing x over time.
	var lastCenters map[int]geom.Point
	for f := 0; f < w.FrameCount(); f += 5 {
		centers := map[int]geom.Point{}
		for _, gt := range w.VisibleAt(f) {
			centers[gt.ID] = gt.Box.Center()
			if gt.Lane != "W->E" {
				t.Errorf("unexpected lane %q", gt.Lane)
			}
		}
		for id, c := range centers {
			if prev, ok := lastCenters[id]; ok {
				if c.X <= prev.X {
					t.Errorf("object %d moved backwards: %v -> %v", id, prev.X, c.X)
				}
			}
		}
		lastCenters = centers
	}
}

func TestVisibleBoxesInsideFrameMostly(t *testing.T) {
	w := NewWorld(testConfig(), 20, 3)
	bounds := geom.Rect{W: 320, H: 240}
	for f := 0; f < w.FrameCount(); f += 7 {
		for _, gt := range w.VisibleAt(f) {
			vis := gt.Box.Intersect(bounds)
			if vis.Area() < 0.35*gt.Box.Area() {
				t.Errorf("frame %d: visible object mostly outside frame: %v", f, gt.Box)
			}
		}
	}
}

func TestOccluderHidesObjects(t *testing.T) {
	cfg := testConfig()
	cfg.Occluders = []geom.Rect{{X: 140, Y: 80, W: 80, H: 80}}
	w := NewWorld(cfg, 30, 5)
	for f := 0; f < w.FrameCount(); f++ {
		for _, gt := range w.VisibleAt(f) {
			if cfg.Occluders[0].Contains(gt.Box.Center()) {
				t.Fatalf("frame %d: object visible inside occluder", f)
			}
		}
	}
}

func TestHardBrakingSlowsObject(t *testing.T) {
	cfg := testConfig()
	cfg.HardBrakeProb = 1 // every car brakes
	w := NewWorld(cfg, 30, 9)
	var braking *Object
	for i := range w.Objects {
		if w.Objects[i].BrakeFrac >= 0 {
			braking = &w.Objects[i]
			break
		}
	}
	if braking == nil {
		t.Skip("no braking object spawned")
	}
	// Distance over equal time windows decreases after braking.
	t0 := braking.SpawnSec
	early := w.progress(braking, t0+0.5) - w.progress(braking, t0)
	brakeTime := braking.BrakeFrac * w.pathLen[braking.LaneIdx] / braking.Speed
	late := w.progress(braking, t0+brakeTime+2.0) - w.progress(braking, t0+brakeTime+1.5)
	if late >= early {
		t.Errorf("braking object did not slow: early %v late %v", early, late)
	}
}

func TestProgressMonotonicProperty(t *testing.T) {
	w := NewWorld(testConfig(), 10, 21)
	if len(w.Objects) == 0 {
		t.Skip("no objects")
	}
	o := &w.Objects[0]
	f := func(t1Raw, t2Raw uint16) bool {
		t1 := o.SpawnSec + float64(t1Raw)/1000
		t2 := o.SpawnSec + float64(t2Raw)/1000
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return w.progress(o, t2) >= w.progress(o, t1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRenderObjectsAreVisible(t *testing.T) {
	cfg := testConfig()
	cfg.NoiseStd = 0
	cfg.FlickerAmp = 0
	w := NewWorld(cfg, 20, 13)
	// Find a frame with an object and check pixel deviation from an
	// object-free render.
	empty := NewWorld(Config{
		NomW: cfg.NomW, NomH: cfg.NomH, SimW: cfg.SimW, SimH: cfg.SimH,
		FPS: cfg.FPS, BGLow: cfg.BGLow, BGHigh: cfg.BGHigh, BGSeed: cfg.BGSeed,
	}, 1, 1)
	bg := empty.Render(0)
	for f := 0; f < w.FrameCount(); f++ {
		gts := w.VisibleAt(f)
		if len(gts) == 0 {
			continue
		}
		frame := w.Render(f)
		gt := gts[0]
		// Max abs deviation within the object's box should be large.
		s := frame.ScaleToStored(gt.Box)
		var maxDev float64
		for y := int(s.Y); y < int(s.MaxY()) && y < frame.H; y++ {
			for x := int(s.X); x < int(s.MaxX()) && x < frame.W; x++ {
				dev := math.Abs(float64(frame.Pix[y*frame.W+x]) - float64(bg.Pix[y*frame.W+x]))
				if dev > maxDev {
					maxDev = dev
				}
			}
		}
		if maxDev < 15 {
			t.Errorf("frame %d: rendered object barely visible (max dev %v)", f, maxDev)
		}
		return
	}
	t.Skip("no visible objects in any frame")
}

func TestFrameCount(t *testing.T) {
	w := NewWorld(testConfig(), 6, 1)
	if w.FrameCount() != 60 {
		t.Errorf("FrameCount = %d, want 60", w.FrameCount())
	}
}

// TestPathsRegroupVisibleAt: Paths is VisibleAt read object by object,
// the same for callers asking from several goroutines at once.
func TestPathsRegroupVisibleAt(t *testing.T) {
	w := NewWorld(testConfig(), 10, 42)
	want := map[int]ObjectPath{}
	var order []int
	for f := 0; f < w.FrameCount(); f++ {
		for _, gt := range w.VisibleAt(f) {
			p, ok := want[gt.ID]
			if !ok {
				order = append(order, gt.ID)
			}
			p.ID, p.Cat = gt.ID, gt.Cat
			p.Centers = append(p.Centers, gt.Box.Center())
			want[gt.ID] = p
		}
	}
	sort.Ints(order)
	got := make([][]ObjectPath, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() { defer wg.Done(); got[g] = w.Paths() }()
	}
	wg.Wait()
	for g, paths := range got {
		if len(paths) != len(order) || len(paths) == 0 {
			t.Fatalf("caller %d: %d paths, want %d objects seen", g, len(paths), len(order))
		}
		for i, p := range paths {
			if !reflect.DeepEqual(p, want[order[i]]) {
				t.Fatalf("caller %d: path %d = %+v, want %+v", g, i, p, want[order[i]])
			}
		}
	}
}
