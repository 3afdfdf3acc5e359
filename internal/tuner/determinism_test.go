package tuner

import (
	"math"
	"reflect"
	"testing"

	"otif/internal/core"
	"otif/internal/parallel"
)

// TestTuneDeterministicAcrossWorkerCounts asserts that the greedy tuner
// returns an identical curve — same configurations, bit-identical runtimes
// and accuracies — whether candidate evaluation and cache building run
// serially or on the worker pool.
func TestTuneDeterministicAcrossWorkerCounts(t *testing.T) {
	sys, metric := trainedSystem(t)
	opts := DefaultOptions()

	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	serial := Tune(sys, metric, opts)
	if len(serial) == 0 {
		t.Fatal("empty serial curve")
	}
	for _, workers := range []int{2, 5} {
		parallel.SetWorkers(workers)
		par := Tune(sys, metric, opts)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: curve length %d != serial %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i].Cfg != serial[i].Cfg {
				t.Errorf("workers=%d point %d: cfg %v != serial %v", workers, i, par[i].Cfg, serial[i].Cfg)
			}
			if par[i].Runtime != serial[i].Runtime {
				t.Errorf("workers=%d point %d: runtime %v != serial %v", workers, i, par[i].Runtime, serial[i].Runtime)
			}
			if par[i].Accuracy != serial[i].Accuracy {
				t.Errorf("workers=%d point %d: accuracy %v != serial %v", workers, i, par[i].Accuracy, serial[i].Accuracy)
			}
		}
	}
}

// TestProxyEstimatesSameAtAnyWorkerCount fills the proxy-estimate memo
// from one caching phase with one worker and with four, for every detector
// setting of the detection grid: the memo must hold the same entries, bit
// for bit, and nextProxy must pick the same candidate.
func TestProxyEstimatesSameAtAnyWorkerCount(t *testing.T) {
	sys, metric := trainedSystem(t)
	opts := DefaultOptions()
	defer parallel.SetWorkers(0)
	built := newCache(sys, metric, opts)

	type run struct {
		memo  map[proxyEstKey]proxyEstVal
		picks []core.Config
	}
	fill := func(workers int) run {
		parallel.SetWorkers(workers)
		c := *built
		c.proxyEst = map[proxyEstKey]proxyEstVal{}
		var r run
		for _, arch := range archs {
			for _, scale := range core.DetScaleLadder {
				cur := sys.Best
				cur.Arch, cur.DetScale = arch, scale
				next, _ := c.nextProxy(sys, cur)
				r.picks = append(r.picks, next)
			}
		}
		r.memo = c.proxyEst
		return r
	}
	serial, par := fill(1), fill(4)
	if want := len(archs) * len(core.DetScaleLadder) * len(sys.Proxies) * len(core.ProxyThreshLadder); len(serial.memo) != want {
		t.Fatalf("serial memo holds %d estimates, want %d", len(serial.memo), want)
	}
	if len(par.memo) != len(serial.memo) {
		t.Fatalf("4 workers: memo holds %d estimates, serial %d", len(par.memo), len(serial.memo))
	}
	for k, s := range serial.memo {
		p, ok := par.memo[k]
		if !ok || math.Float64bits(p.est) != math.Float64bits(s.est) || math.Float64bits(p.recall) != math.Float64bits(s.recall) {
			t.Errorf("%+v: 4 workers %+v (present %v), serial %+v", k, p, ok, s)
		}
	}
	if !reflect.DeepEqual(par.picks, serial.picks) {
		t.Errorf("4 workers picked %v, serial %v", par.picks, serial.picks)
	}
}
