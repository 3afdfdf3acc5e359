package core

import (
	"reflect"
	"testing"

	"otif/internal/dataset"
	"otif/internal/obs"
	"otif/internal/parallel"
)

// TestRunSetDeterministicAcrossWorkerCounts asserts the parallel execution
// contract (DESIGN.md "Parallel execution"): RunSet produces bit-for-bit
// identical simulated runtimes, cost breakdowns, and query tracks at any
// worker count, because each clip charges its own shard accountant and the
// shards merge in clip order.
func TestRunSetDeterministicAcrossWorkerCounts(t *testing.T) {
	sys := smallSystem(t)
	cfgs := []Config{sys.Best}
	proxied := sys.Best
	proxied.UseProxy = true
	proxied.ProxyIdx = 0
	proxied.ProxyThresh = 0.3
	proxied.Gap = 2
	cfgs = append(cfgs, proxied)

	defer parallel.SetWorkers(0)
	for _, cfg := range cfgs {
		parallel.SetWorkers(1)
		serial := sys.RunSet(cfg, sys.DS.Val)
		for _, workers := range []int{2, 4, 7} {
			parallel.SetWorkers(workers)
			par := sys.RunSet(cfg, sys.DS.Val)
			if par.Runtime != serial.Runtime {
				t.Errorf("workers=%d cfg=%v: runtime %v != serial %v",
					workers, cfg, par.Runtime, serial.Runtime)
			}
			if !reflect.DeepEqual(par.Breakdown, serial.Breakdown) {
				t.Errorf("workers=%d cfg=%v: breakdown %v != serial %v",
					workers, cfg, par.Breakdown, serial.Breakdown)
			}
			if !reflect.DeepEqual(par.PerClip, serial.PerClip) {
				t.Errorf("workers=%d cfg=%v: per-clip tracks differ from serial", workers, cfg)
			}
		}
	}
}

// metProducers is the reader's count of decode-ahead producers started.
var metProducers = obs.Default.Counter("video.prefetch.producers")

// TestRunSetOneClipAtTwoWorkers: a clip extracted alone at two workers
// decodes ahead on two producers, and its tracks, runtime and breakdown
// are those of the same clip at one worker, with and without the proxy.
func TestRunSetOneClipAtTwoWorkers(t *testing.T) {
	sys := smallSystem(t)
	proxied := sys.Best
	proxied.UseProxy, proxied.ProxyIdx, proxied.ProxyThresh, proxied.Gap = true, 0, 0.3, 2
	clip := sys.DS.Val[:1]
	defer parallel.SetWorkers(0)
	for _, cfg := range []Config{sys.Best, proxied} {
		parallel.SetWorkers(1)
		serial := sys.RunSet(cfg, clip)
		parallel.SetWorkers(2)
		before := metProducers.Value()
		par := sys.RunSet(cfg, clip)
		if got := metProducers.Value() - before; got != 2 {
			t.Errorf("cfg=%v: one clip at two workers started %d producers, want 2", cfg, got)
		}
		if par.Runtime != serial.Runtime || !reflect.DeepEqual(par.Breakdown, serial.Breakdown) {
			t.Errorf("cfg=%v: runtime %v %v at two workers, %v %v at one", cfg, par.Runtime, par.Breakdown, serial.Runtime, serial.Breakdown)
		}
		if !reflect.DeepEqual(par.PerClip, serial.PerClip) {
			t.Errorf("cfg=%v: tracks at two workers differ from one", cfg)
		}
	}
}

// TestRunSetProducersNeverOversubscribe: a set of at least as many clips
// as workers reads each clip on one producer, so four clips at two
// workers start four producers, not eight.
func TestRunSetProducersNeverOversubscribe(t *testing.T) {
	sys := smallSystem(t)
	clips := append(append([]*dataset.ClipTruth(nil), sys.DS.Val...), sys.DS.Test...)[:4]
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(2)
	before := metProducers.Value()
	sys.RunSet(sys.Best, clips)
	if got := metProducers.Value() - before; got != 4 {
		t.Errorf("four clips at two workers started %d producers, want 4", got)
	}
}
