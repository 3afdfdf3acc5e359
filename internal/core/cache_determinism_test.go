package core

import (
	"math"
	"reflect"
	"testing"

	"otif/internal/detect"
	"otif/internal/video"
)

// TestRunSetDeterministicAcrossCacheBudgets asserts the frame-cache
// contract (DESIGN.md "Inference kernels and caching"): RunSet produces
// bit-for-bit identical simulated runtimes, cost breakdowns and query
// tracks whether the process-wide frame cache is enabled, tiny (thrashing)
// or disabled — the cache only changes wall-clock speed, never results.
// Each budget runs every configuration twice, so the second run reads the
// first one's entries; the full-frame SORT configurations are the ones
// whose detections are cached.
func TestRunSetDeterministicAcrossCacheBudgets(t *testing.T) {
	defer video.SetCacheBudget(video.DefaultCacheBytes)

	sys := smallSystem(t)
	proxied := sys.Best
	proxied.UseProxy = true
	proxied.ProxyIdx = 0
	proxied.ProxyThresh = 0.3
	proxied.Gap = 2
	fullFrame := Config{Arch: detect.ArchRCNN, DetScale: 0.7, DetConf: DetConfDefault, Gap: 1, Tracker: TrackerSORT}
	fullFrameGap4 := fullFrame
	fullFrameGap4.Gap = 4

	for _, cfg := range []Config{sys.Best, proxied, fullFrame, fullFrameGap4} {
		video.SetCacheBudget(0)
		uncached := sys.RunSet(cfg, sys.DS.Val)
		for _, budget := range []int64{video.DefaultCacheBytes, 64 << 10, 16 << 10} {
			video.SetCacheBudget(budget)
			for pass := 0; pass < 2; pass++ {
				cached := sys.RunSet(cfg, sys.DS.Val)
				if math.Float64bits(cached.Runtime) != math.Float64bits(uncached.Runtime) {
					t.Errorf("budget=%d pass %d cfg=%v: runtime %v != uncached %v",
						budget, pass, cfg, cached.Runtime, uncached.Runtime)
				}
				if !reflect.DeepEqual(cached.Breakdown, uncached.Breakdown) {
					t.Errorf("budget=%d pass %d cfg=%v: breakdown %v != uncached %v",
						budget, pass, cfg, cached.Breakdown, uncached.Breakdown)
				}
				if !reflect.DeepEqual(cached.PerClip, uncached.PerClip) {
					t.Errorf("budget=%d pass %d cfg=%v: per-clip tracks differ from uncached run", budget, pass, cfg)
				}
			}
		}
	}
}

// TestProxiedRunSetDeterministicWithCachedScores runs two proxy models
// over the same clips twice with the frame cache on, so the second pass
// reads scores the first left in the cache, and checks every run against
// the cache-off run: same runtime, breakdown and tracks.
func TestProxiedRunSetDeterministicWithCachedScores(t *testing.T) {
	defer video.SetCacheBudget(video.DefaultCacheBytes)

	sys := smallSystem(t)
	var cfgs []Config
	var uncached []*SetResult
	video.SetCacheBudget(0)
	for _, idx := range []int{0, len(sys.Proxies) - 1} {
		cfg := sys.Best
		cfg.UseProxy = true
		cfg.ProxyIdx = idx
		cfg.ProxyThresh = 0.3
		cfgs = append(cfgs, cfg)
		uncached = append(uncached, sys.RunSet(cfg, sys.DS.Val))
	}
	video.SetCacheBudget(video.DefaultCacheBytes)
	for pass := 0; pass < 2; pass++ {
		for i, cfg := range cfgs {
			cached := sys.RunSet(cfg, sys.DS.Val)
			if cached.Runtime != uncached[i].Runtime {
				t.Errorf("pass %d proxy %d: runtime %v != uncached %v", pass, cfg.ProxyIdx, cached.Runtime, uncached[i].Runtime)
			}
			if !reflect.DeepEqual(cached.Breakdown, uncached[i].Breakdown) {
				t.Errorf("pass %d proxy %d: breakdown %v != uncached %v", pass, cfg.ProxyIdx, cached.Breakdown, uncached[i].Breakdown)
			}
			if !reflect.DeepEqual(cached.PerClip, uncached[i].PerClip) {
				t.Errorf("pass %d proxy %d: per-clip tracks differ from uncached run", pass, cfg.ProxyIdx)
			}
		}
	}
	if reflect.DeepEqual(uncached[0].PerClip, uncached[1].PerClip) {
		t.Error("the two proxy models give the same tracks; the test cannot tell their scores apart")
	}
}

// TestRunSetRepeatableWithScratchReuse runs the same configuration twice
// through the same system. The second run reuses every warmed scratch
// buffer (tracker match scratch, detector analysis scratch, assignment
// scratch), so equality proves buffer reuse never leaks state between
// frames, clips or runs.
func TestRunSetRepeatableWithScratchReuse(t *testing.T) {
	sys := smallSystem(t)
	cfg := sys.Best
	cfg.UseProxy = true
	cfg.ProxyIdx = 0
	cfg.ProxyThresh = 0.3
	cfg.Gap = 2

	first := sys.RunSet(cfg, sys.DS.Val)
	second := sys.RunSet(cfg, sys.DS.Val)
	if first.Runtime != second.Runtime {
		t.Errorf("repeat runtime %v != first %v", second.Runtime, first.Runtime)
	}
	if !reflect.DeepEqual(first.PerClip, second.PerClip) {
		t.Error("repeat run produced different tracks")
	}
}
