package core

import (
	"reflect"
	"testing"

	"otif/internal/costmodel"
)

// TestRunClipPooledMatchesPublic pins the pooled clip-execution path used
// by RunSet to the public RunClip: identical tracks and identical charged
// costs, with pooling (and prefetch) only changing where buffers live.
func TestRunClipPooledMatchesPublic(t *testing.T) {
	sys := smallSystem(t)
	for _, cfg := range []Config{sys.Best} {
		pubAcct := costmodel.NewAccountant()
		pub := sys.RunClip(cfg, sys.DS.Val[0].Clip, pubAcct)

		pooledAcct := costmodel.NewAccountant()
		pooled := sys.runClip(t.Context(), cfg, sys.DS.Val[0].Clip, pooledAcct, true)

		if pooled.DetsByFrame != nil {
			t.Error("pooled run must not retain DetsByFrame")
		}
		if len(pub.DetsByFrame) == 0 {
			t.Error("public run must retain DetsByFrame")
		}
		if !reflect.DeepEqual(pub.Tracks, pooled.Tracks) {
			t.Errorf("cfg=%v: pooled tracks differ from public RunClip", cfg)
		}
		if pubAcct.Total() != pooledAcct.Total() {
			t.Errorf("cfg=%v: pooled cost %v != public %v", cfg, pooledAcct.Total(), pubAcct.Total())
		}
	}
}
