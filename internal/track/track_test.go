package track

import (
	"testing"

	"otif/internal/detect"
	"otif/internal/geom"
)

func det(frame int, x, y, w, h float64) detect.Detection {
	return detect.Detection{
		FrameIdx: frame,
		Box:      geom.Rect{X: x, Y: y, W: w, H: h},
		Score:    0.9,
		Category: "car",
		AppMean:  120,
		AppStd:   20,
	}
}

func linearTrack(startFrame, n, step int, x0, y0, vx, vy float64) *Track {
	tr := &Track{Category: "car"}
	for i := 0; i < n; i++ {
		f := startFrame + i*step
		tr.Dets = append(tr.Dets, det(f, x0+vx*float64(i*step), y0+vy*float64(i*step), 40, 20))
	}
	return tr
}

func TestTrackFrameBounds(t *testing.T) {
	tr := linearTrack(5, 4, 2, 0, 0, 1, 0)
	if tr.FirstFrame() != 5 || tr.LastFrame() != 11 {
		t.Errorf("frames [%d,%d], want [5,11]", tr.FirstFrame(), tr.LastFrame())
	}
	empty := &Track{}
	if empty.FirstFrame() != -1 || empty.LastFrame() != -1 {
		t.Error("empty track frame bounds should be -1")
	}
}

func TestPath(t *testing.T) {
	tr := linearTrack(0, 3, 1, 0, 0, 10, 0)
	p := tr.Path()
	if len(p) != 3 {
		t.Fatalf("path len = %d", len(p))
	}
	if p[1].X != 30 { // center = x + w/2 = 10 + 20
		t.Errorf("path[1] = %v", p[1])
	}
}

func TestMajorityCategory(t *testing.T) {
	tr := &Track{Dets: []detect.Detection{
		{Category: "car"}, {Category: "bus"}, {Category: "car"},
	}}
	if got := tr.MajorityCategory(); got != "car" {
		t.Errorf("MajorityCategory = %s", got)
	}
}

func TestMajorityCategoryTieDeterministic(t *testing.T) {
	// A 2-2 count tie must resolve the same way on every call (the
	// lexicographically smallest category), not by map iteration order:
	// a flapping label changes category-filtered query accuracy between
	// otherwise identical runs.
	tr := &Track{Dets: []detect.Detection{
		{Category: "car"}, {Category: "bus"}, {Category: "bus"}, {Category: "car"},
	}}
	for i := 0; i < 100; i++ {
		if got := tr.MajorityCategory(); got != "bus" {
			t.Fatalf("call %d: MajorityCategory = %q, want bus", i, got)
		}
	}
}

func TestPruneShort(t *testing.T) {
	tracks := []*Track{
		linearTrack(0, 1, 1, 0, 0, 1, 0),
		linearTrack(0, 3, 1, 0, 0, 1, 0),
	}
	out := PruneShort(tracks, 2)
	if len(out) != 1 || len(out[0].Dets) != 3 {
		t.Errorf("PruneShort kept %d tracks", len(out))
	}
}

func TestSORTTracksLinearMotion(t *testing.T) {
	s := NewSORT()
	// Two objects moving on parallel lines, well separated.
	for f := 0; f < 10; f++ {
		dets := []detect.Detection{
			det(f, float64(10*f), 0, 40, 20),
			det(f, float64(10*f), 200, 40, 20),
		}
		s.Update(&FrameContext{FrameIdx: f, GapFrames: 1}, dets)
	}
	tracks := s.Finish()
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d, want 2", len(tracks))
	}
	for _, tr := range tracks {
		if len(tr.Dets) != 10 {
			t.Errorf("track length = %d, want 10", len(tr.Dets))
		}
	}
}

func TestSORTSurvivesMissedFrames(t *testing.T) {
	s := NewSORT()
	s.MaxMisses = 3
	for f := 0; f < 12; f++ {
		var dets []detect.Detection
		if f != 5 && f != 6 { // two-frame dropout
			dets = append(dets, det(f, float64(5*f), 0, 40, 20))
		}
		s.Update(&FrameContext{FrameIdx: f, GapFrames: 1}, dets)
	}
	tracks := s.Finish()
	if len(tracks) != 1 {
		t.Fatalf("tracks = %d, want 1 (dropout bridged)", len(tracks))
	}
	if len(tracks[0].Dets) != 10 {
		t.Errorf("track detections = %d, want 10", len(tracks[0].Dets))
	}
}

func TestSORTTerminatesLostTracks(t *testing.T) {
	s := NewSORT()
	s.MaxMisses = 1
	s.Update(&FrameContext{FrameIdx: 0, GapFrames: 1}, []detect.Detection{det(0, 0, 0, 40, 20)})
	s.Update(&FrameContext{FrameIdx: 1, GapFrames: 1}, []detect.Detection{det(1, 5, 0, 40, 20)})
	// Object disappears; a new one appears far away much later.
	for f := 2; f < 6; f++ {
		s.Update(&FrameContext{FrameIdx: f, GapFrames: 1}, nil)
	}
	s.Update(&FrameContext{FrameIdx: 6, GapFrames: 1}, []detect.Detection{det(6, 500, 300, 40, 20)})
	s.Update(&FrameContext{FrameIdx: 7, GapFrames: 1}, []detect.Detection{det(7, 505, 300, 40, 20)})
	tracks := s.Finish()
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d, want 2 (old track terminated, new started)", len(tracks))
	}
}

func TestSORTIDsSequentialAndOrdered(t *testing.T) {
	s := NewSORT()
	s.Update(&FrameContext{FrameIdx: 0, GapFrames: 1}, []detect.Detection{
		det(0, 0, 0, 40, 20), det(0, 300, 300, 40, 20),
	})
	s.Update(&FrameContext{FrameIdx: 1, GapFrames: 1}, []detect.Detection{
		det(1, 5, 0, 40, 20), det(1, 305, 300, 40, 20),
	})
	tracks := s.Finish()
	for i, tr := range tracks {
		if tr.ID != i {
			t.Errorf("track %d has ID %d", i, tr.ID)
		}
		if tr.Category == "" {
			t.Error("category not assigned")
		}
	}
}

func TestSubSampleAtGap(t *testing.T) {
	tr := linearTrack(0, 10, 1, 0, 0, 1, 0)
	sub := SubSampleAtGap(tr.Dets, 3)
	want := []int{0, 3, 6, 9}
	if len(sub) != len(want) {
		t.Fatalf("subsample = %d dets", len(sub))
	}
	for i, d := range sub {
		if d.FrameIdx != want[i] {
			t.Errorf("subsample[%d].frame = %d, want %d", i, d.FrameIdx, want[i])
		}
	}
	if got := SubSampleAtGap(nil, 2); got != nil {
		t.Error("empty input should return nil")
	}
	// Gap 1 returns everything.
	if got := SubSampleAtGap(tr.Dets, 1); len(got) != 10 {
		t.Errorf("gap 1 kept %d", len(got))
	}
}

func TestDetFeaturesNormalized(t *testing.T) {
	d := det(4, 100, 50, 40, 20)
	f := DetFeatures(d, 400, 200, 10, 5)
	if len(f) != FeatDim {
		t.Fatalf("feature dim = %d, want %d", len(f), FeatDim)
	}
	if f[0] != 0.3 { // center x 120/400
		t.Errorf("cx feature = %v", f[0])
	}
	if f[6] != 0.5 { // 5 frames at 10 fps
		t.Errorf("t_elapsed feature = %v", f[6])
	}
}

func TestMotionFeaturesPredicts(t *testing.T) {
	prefix := []detect.Detection{det(0, 0, 0, 40, 20), det(2, 20, 0, 40, 20)}
	// Perfect continuation at the constant velocity (10 px/frame).
	good := det(4, 40, 0, 40, 20)
	bad := det(4, 200, 100, 40, 20)
	fg := MotionFeatures(prefix, good, 400, 200)
	fb := MotionFeatures(prefix, bad, 400, 200)
	if len(fg) != MotionDim {
		t.Fatalf("motion dim = %d", len(fg))
	}
	if ab := fg[0]*fg[0] + fg[1]*fg[1]; ab > 1e-9 {
		t.Errorf("perfect continuation residual = %v, want 0", ab)
	}
	if fb[0]*fb[0]+fb[1]*fb[1] < 0.1 {
		t.Error("bad continuation should have a large residual")
	}
	if fg[4] <= fb[4] {
		t.Error("predicted IoU should be higher for the good candidate")
	}
	// Single-detection prefix: velocity unknown, residual = displacement.
	one := MotionFeatures(prefix[:1], good, 400, 200)
	if one[0] == 0 {
		t.Error("unknown velocity should leave a displacement residual")
	}
}
