package core

import (
	"reflect"
	"testing"

	"otif/internal/costmodel"
	"otif/internal/detect"
)

// TestRunClipObserverChangesNothing pins the one clip path's observer
// contract: attaching a FrameObserver yields identical tracks and identical
// charged cost, and the observer sees every processed frame exactly once,
// in ascending order, with that frame's detections.
func TestRunClipObserverChangesNothing(t *testing.T) {
	sys := smallSystem(t)
	variable := sys.Best
	variable.Tracker, variable.Gap, variable.VariableGap = TrackerRecurrent, 8, true
	for _, cfg := range []Config{sys.Best, variable} {
		clip := sys.DS.Val[0].Clip
		plainAcct := costmodel.NewAccountant()
		plain := sys.RunClip(cfg, clip, plainAcct, nil)

		var frames []int
		boxes := 0
		observedAcct := costmodel.NewAccountant()
		observed := sys.RunClip(cfg, clip, observedAcct, func(idx int, dets []detect.Detection) {
			frames = append(frames, idx)
			for _, d := range dets {
				if d.FrameIdx != idx {
					t.Errorf("cfg=%v: frame %d was shown a detection of frame %d", cfg, idx, d.FrameIdx)
				}
			}
			boxes += len(dets)
		})

		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("cfg=%v: tracks differ with an observer attached", cfg)
		}
		if plainAcct.Total() != observedAcct.Total() {
			t.Errorf("cfg=%v: cost %v with an observer, %v without", cfg, observedAcct.Total(), plainAcct.Total())
		}
		if len(frames) == 0 || boxes == 0 {
			t.Fatalf("cfg=%v: observer saw %d frames and %d detections", cfg, len(frames), boxes)
		}
		for i := 1; i < len(frames); i++ {
			if frames[i] <= frames[i-1] {
				t.Fatalf("cfg=%v: frames observed out of order or twice: %v", cfg, frames)
			}
		}
		if !cfg.VariableGap {
			if want := (clip.Len() + cfg.Gap - 1) / cfg.Gap; len(frames) != want {
				t.Errorf("cfg=%v: observer saw %d frames, the reader processes %d", cfg, len(frames), want)
			}
		}
	}
}
