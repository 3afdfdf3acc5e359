package core

import (
	"reflect"
	"testing"

	"otif/internal/obs"
)

// TestRunSetDeterministicWithRecorder asserts the flight-recorder
// contract: extraction results are bit-for-bit identical whether the
// recorder is off (spans read no clocks, allocate nothing) or on
// (always-on daemon mode). Durations are recorded only — they never feed
// back into the simulated cost model or the tracker.
func TestRunSetDeterministicWithRecorder(t *testing.T) {
	sys := smallSystem(t)
	cfg := sys.Best
	cfg.UseProxy = true
	cfg.ProxyIdx = 0
	cfg.ProxyThresh = 0.3
	cfg.Gap = 2

	obs.SetRecorder(nil)
	off := sys.RunSet(cfg, sys.DS.Val)
	rec := obs.EnableTracing(1 << 10)
	defer obs.SetRecorder(nil)
	on := sys.RunSet(cfg, sys.DS.Val)

	if on.Runtime != off.Runtime {
		t.Errorf("runtime with recorder %v != without %v", on.Runtime, off.Runtime)
	}
	if !reflect.DeepEqual(on.Breakdown, off.Breakdown) {
		t.Errorf("breakdown with recorder %v != without %v", on.Breakdown, off.Breakdown)
	}
	if !reflect.DeepEqual(on.PerClip, off.PerClip) {
		t.Error("per-clip tracks differ with the recorder enabled")
	}

	// The recorder captured the run: one attributed run.set root with one
	// parent-linked run.clip span per clip.
	var setID uint64
	clips := 0
	for _, s := range rec.Snapshot() {
		switch s.Name {
		case "run.set":
			if s.Stage != "extract" {
				t.Errorf("run.set span missing attributes: %+v", s)
			}
			setID = s.ID
		case "run.clip":
			if s.Stage != "extract" || s.Clip < 0 {
				t.Errorf("run.clip span missing attributes: %+v", s)
			}
			if s.Parent != setID {
				t.Errorf("run.clip parent = %d, want run.set id %d", s.Parent, setID)
			}
			clips++
		}
	}
	if want := len(sys.DS.Val); clips != want {
		t.Errorf("recorded %d run.clip spans, want %d", clips, want)
	}
}
