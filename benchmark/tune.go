package main

import (
	"reflect"
	"sync/atomic"
	"time"

	"otif/internal/core"
	"otif/internal/dataset"
	"otif/internal/obs"
	"otif/internal/tuner"
	"otif/internal/video"
)

// tune-warm repeats tuner.Tune over one validation set whose frames and
// downsamples (36 MB) fit the 64 MiB frame cache, after one untimed
// repetition has filled it. It is the one workload on which the cache and
// the prefetcher serve repeated reads, so a change to either is judged
// here as well as on the two cold extraction workloads.
//
// Its input is the pipeline's own training and validation sets, so --seed
// selects nothing here: the greedy tuner's path, and with it Tune's time
// (1.0 to 3.6 s over ten data seeds at dataset.DefaultSpec) and its pick,
// change more from one data seed to the next than any optimisation would.

func runTuneWarm(c *runCtx) error {
	var sys *core.System
	var metric core.Metric
	if err := c.setup(func() (err error) {
		sys, metric, err = train("caldot1", c.sz.tuneSpec)
		return err
	}); err != nil {
		return err
	}
	var iters, configs atomic.Int64
	opts := tuner.DefaultOptions()
	opts.Progress = func(e obs.Event) {
		switch e.Kind {
		case obs.EventTuneIter:
			iters.Add(1)
		case obs.EventCandidate:
			configs.Add(1)
		}
	}

	want := tuner.Tune(sys, metric, opts) // warm-up: fills the frame cache
	c.op(len(want) > 0, "tuner returned an empty curve")
	for i := 1; i < len(want); i++ {
		c.op(want[i].Runtime < want[i-1].Runtime, "curve point %d: runtime %v does not descend from %v", i, want[i].Runtime, want[i-1].Runtime)
	}
	pick, ok := tuner.FastestWithin(want, 0.05)
	c.op(ok && pick.Runtime > 0, "no configuration within 0.05 of the best accuracy")
	iters.Store(0)
	configs.Store(0)
	cache0 := video.GlobalCacheStats()

	// Timed repetitions, each followed by a few warm RunSets of the picked
	// configuration over the same validation set (what the pre-ledger
	// snapshots called cached RunSet), so that both sample the whole run.
	// Every curve must equal the first and every RunSet's tracks the first
	// RunSet's. One repetition and its RunSets are one stretch for the machine
	// factor (calib.go).
	var tunes, runs timing
	first := sys.RunSet(pick.Cfg, sys.DS.Val).PerClip
	c.gaugeStart()
	deadline := time.Now().Add(c.phase(1))
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		id := c.tr.begin("tuner.Tune", laneMain, -1, n)
		t0 := time.Now()
		curve := tuner.Tune(sys, metric, opts)
		tuneMS := ms(time.Since(t0))
		c.tr.end(id)
		c.op(reflect.DeepEqual(curve, want), "repetition %d: curve differs from the first", n)
		var runMS []float64
		for k := 0; k < 5 && !c.traced; k++ {
			t0 := time.Now()
			res := sys.RunSet(pick.Cfg, sys.DS.Val)
			runMS = append(runMS, ms(time.Since(t0)))
			c.op(reflect.DeepEqual(res.PerClip, first), "warm RunSet %d of repetition %d: tracks differ from the first", k, n)
		}
		f := c.factor()
		tunes.add(f, tuneMS)
		runs.add(f, runMS...)
	}
	cache1 := video.GlobalCacheStats()

	if c.traced {
		reps := float64(len(tunes.raw))
		c.set("tuner.iterations", float64(iters.Load())/reps)
		c.set("tuner.configs_evaluated", float64(configs.Load())/reps+1) // +1: theta_best itself
		c.set("tuner.curve_points", float64(len(want)))
		setCacheDelta(c, cache0, cache1)
		// Layer shares of a warm extraction: replay the pick over the
		// validation set, which the tuner has just read many times (no
		// frame is rendered, so the vidsim metrics stay 0).
		res := sys.RunSet(pick.Cfg, sys.DS.Val)
		lc := &layerClock{}
		for i, ct := range sys.DS.Val {
			got := replayClip(sys, pick.Cfg, ct, lc, c.tr, i)
			c.op(reflect.DeepEqual(got, res.PerClip[i]), "validation clip %d: replay differs from RunSet", i)
		}
		lc.report(c, res.Breakdown)
		microbench(c, sys.DS.Val[0])
		return nil
	}

	valS := setSeconds(sys.DS.Val)
	c.setTiming("op", &tunes)
	c.setTiming("op2", &runs)
	c.set("throughput", valS*1000/median(runs.norm))
	// The paper's Table 2 selection, as the simulated speed of the pick:
	// validation video seconds per simulated second.
	c.set("quality", valS/pick.Runtime)
	return nil
}

func setSeconds(clips []*dataset.ClipTruth) float64 {
	var s float64
	for _, ct := range clips {
		s += float64(ct.Clip.Len()) / float64(ct.Clip.FPS())
	}
	return s
}
