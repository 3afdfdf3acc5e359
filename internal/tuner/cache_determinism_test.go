package tuner

import (
	"testing"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/video"
)

// TestTuneDeterministicAcrossCacheBudgets asserts the tuner returns an
// identical curve — same configurations, bit-identical runtimes and
// accuracies — with the process-wide frame cache disabled, cold, warm from
// an earlier Tune, or thrashing. The cache serves repeated clip-frame
// reads, downsamples, proxy scores and full-frame detections during
// candidate evaluation; it must never change what is computed.
func TestTuneDeterministicAcrossCacheBudgets(t *testing.T) {
	defer video.SetCacheBudget(video.DefaultCacheBytes)

	sys, metric := trainedSystem(t)
	opts := DefaultOptions()

	video.SetCacheBudget(0)
	uncached := Tune(sys, metric, opts)
	if len(uncached) == 0 {
		t.Fatal("empty uncached curve")
	}
	same := func(label string, cached []Point) {
		t.Helper()
		if len(cached) != len(uncached) {
			t.Fatalf("%s: curve length %d != uncached %d", label, len(cached), len(uncached))
		}
		for i := range uncached {
			if cached[i].Cfg != uncached[i].Cfg {
				t.Errorf("%s: point %d: cfg %v != uncached %v", label, i, cached[i].Cfg, uncached[i].Cfg)
			}
			if cached[i].Runtime != uncached[i].Runtime {
				t.Errorf("%s: point %d: runtime %v != uncached %v", label, i, cached[i].Runtime, uncached[i].Runtime)
			}
			if cached[i].Accuracy != uncached[i].Accuracy {
				t.Errorf("%s: point %d: accuracy %v != uncached %v", label, i, cached[i].Accuracy, uncached[i].Accuracy)
			}
		}
	}

	video.SetCacheBudget(video.DefaultCacheBytes)
	same("cold cache", Tune(sys, metric, opts))

	// A second Tune over the same validation set finds every clip frame,
	// downsample, proxy score and full-frame detection where the first left
	// them.
	before := video.GlobalCacheStats()
	same("warm cache", Tune(sys, metric, opts))
	after := video.GlobalCacheStats()
	if misses := after.Misses - before.Misses; misses != 0 || after.Hits == before.Hits {
		t.Errorf("warm Tune: %d hits, %d misses; want only hits", after.Hits-before.Hits, misses)
	}
	// Those hits include the detections: every cell of the detection grid,
	// run over the validation frames once more, is answered by the cache
	// alone, so no warm Tune detection missed.
	before = video.GlobalCacheStats()
	calls := 0
	for _, arch := range archs {
		for _, scale := range core.DetScaleLadder {
			cfg := sys.Best
			cfg.Arch, cfg.DetScale = arch, scale
			det := sys.Detector(cfg, costmodel.NewAccountant())
			for _, ct := range sys.DS.Val {
				for idx := 0; idx < ct.Clip.Len(); idx += cfg.Gap {
					det.Detect(ct.Clip.Frame(idx), idx)
					calls++
				}
			}
		}
	}
	after = video.GlobalCacheStats()
	if misses := after.Misses - before.Misses; misses != 0 || after.Hits-before.Hits != uint64(2*calls) {
		t.Errorf("grid detections after the warm Tune: %d hits, %d misses; want %d hits (a clip frame and its detections per call)",
			after.Hits-before.Hits, misses, 2*calls)
	}

	// 16 KiB holds no 240x160 clip frame (38,400 bytes) but a few proxy
	// downsamples and score vectors (345 cells, 2,920 bytes charged); each
	// frame's five proxy models alone overflow it, so score entries are
	// evicted while the Tune still needs them.
	video.SetCacheBudget(16 << 10)
	same("thrashing cache", Tune(sys, metric, opts))
	if s := video.GlobalCacheStats(); s.Evictions == 0 {
		t.Errorf("thrashing Tune evicted nothing: %+v", s)
	}
}
