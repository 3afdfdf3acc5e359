package query

import (
	"math"
	"testing"

	"otif/internal/geom"
)

func TestTrackSpeed(t *testing.T) {
	// 10 px per frame at 10 fps = 100 px/s, constant.
	tr := mkTrack(0, "car", 0, 11, 1, 0, 0, 10, 0)
	st := TrackSpeed(tr, 10)
	if math.Abs(st.Mean-100) > 1e-9 || math.Abs(st.P50-100) > 1e-9 || math.Abs(st.Max-100) > 1e-9 {
		t.Errorf("constant-speed stats = %+v, want all 100", st)
	}
	// Short and degenerate tracks.
	if TrackSpeed(&Track{}, 10) != (SpeedStats{}) {
		t.Error("empty track should have zero stats")
	}
	if TrackSpeed(tr, 0) != (SpeedStats{}) {
		t.Error("zero fps should have zero stats")
	}
}

func TestSpeeding(t *testing.T) {
	ctx := Context{FPS: 10, Frames: 100}
	slow := mkTrack(0, "car", 0, 11, 1, 0, 0, 2, 0)   // 20 px/s
	fast := mkTrack(1, "car", 0, 11, 1, 0, 50, 20, 0) // 200 px/s
	out := Speeding([]*Track{slow, fast}, ctx, 100)
	if len(out) != 1 || out[0].ID != 1 {
		t.Errorf("Speeding = %v", ids(out))
	}
}

func TestDwellTime(t *testing.T) {
	ctx := Context{FPS: 10, Frames: 100}
	// Track crosses x from 20 to 120 over 100 frames (1 px/frame);
	// region covers x in [50, 70] -> ~20 frames -> 2 seconds.
	tr := mkTrack(0, "car", 0, 101, 1, 0, 0, 1, 0)
	region := geom.Polygon{{X: 50, Y: -10}, {X: 70, Y: -10}, {X: 70, Y: 50}, {X: 50, Y: 50}}
	dw := DwellTime([]*Track{tr}, "car", region, ctx)
	got := dw[0]
	if got < 1.5 || got > 2.5 {
		t.Errorf("dwell = %v s, want ~2", got)
	}
	// Category filter.
	if len(DwellTime([]*Track{tr}, "bus", region, ctx)) != 0 {
		t.Error("category filter failed")
	}
}

func TestCoOccurrences(t *testing.T) {
	ctx := Context{FPS: 10, Frames: 10}
	// Two parallel tracks 30 px apart for 10 frames.
	a := mkTrack(0, "car", 0, 10, 1, 0, 0, 1, 0)
	b := mkTrack(1, "car", 0, 10, 1, 0, 30, 1, 0)
	if got := CoOccurrences([]*Track{a, b}, "car", 50, ctx); got != 10 {
		t.Errorf("co-occurrences = %d, want 10", got)
	}
	if got := CoOccurrences([]*Track{a, b}, "car", 10, ctx); got != 0 {
		t.Errorf("distant co-occurrences = %d, want 0", got)
	}
}
