package main

import (
	"reflect"
	"time"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/parallel"
	"otif/internal/query"
	"otif/internal/tuner"
	"otif/internal/video"
)

// The two extraction workloads run core.RunSet over clips no run has seen
// before, so the frame cache is cold: extract-dense at a fixed
// all-detector configuration on the busy junction, extract-tuned at the
// paper's operating point on the sparse highway. The configurations are
// literals, not tuner output, so a tuner change cannot move them.

// extractShape is what distinguishes the two workloads.
type extractShape struct {
	dataset string
	spec    dataset.SetSpec // training set
	cfg     core.Config
	clipSec float64
	slice   int // clips per RunSet call
	singles int // clips extracted alone after each slice; at most slice
}

// accSlices is how many slices, from the first, the accuracy is computed
// over. It is fixed so that the value depends on the seed alone; every run
// extracts at least that many.
const accSlices = 10

var (
	// rcnn@0.70 conf=0.25 no-proxy gap=1 sort
	denseCfg = core.Config{
		Arch: detect.ArchRCNN, DetScale: core.DetScaleLadder[2], DetConf: core.DetConfDefault,
		Gap: 1, Tracker: core.TrackerSORT,
	}
	// yolo@0.59 conf=0.25 proxy=p0@0.20 gap=4 recurrent refine
	tunedCfg = core.Config{
		Arch: detect.ArchYOLO, DetScale: core.DetScaleLadder[3], DetConf: core.DetConfDefault,
		UseProxy: true, ProxyIdx: 0, ProxyThresh: 0.20,
		Gap: 4, Tracker: core.TrackerRecurrent, Refine: true,
	}
)

func runExtractDense(c *runCtx) error {
	return runExtract(c, extractShape{"tokyo", c.sz.tokyoSpec, denseCfg, c.sz.denseClipSec, c.sz.denseSlice, 1})
}

func runExtractTuned(c *runCtx) error {
	return runExtract(c, extractShape{"caldot1", c.sz.caldotSpec, tunedCfg, c.sz.tunedClipSec, c.sz.tunedSlice, 2})
}

// trainSeed seeds the training and validation sets of every workload's
// pipeline. The trained models are part of the system under test, not of
// the input: --seed selects the footage the workloads extract and store
// (see camera), so that a run-to-run difference is never a difference
// between two trainings.
const trainSeed = 1

// train builds the dataset and trains every model, as otif.Open followed
// by Pipeline.Train does.
func train(name string, spec dataset.SetSpec) (*core.System, core.Metric, error) {
	ds, err := dataset.Build(name, spec, trainSeed)
	if err != nil {
		return nil, nil, err
	}
	sys := core.NewSystem(ds)
	metric := core.MetricFor(ds)
	best, _ := tuner.SelectBest(sys, metric)
	sys.FinishTraining(best, 42)
	return sys, metric, nil
}

// camera is the run's footage: an unbounded, deterministic clip generator
// of the dataset's scene, selected by the workload seed and disjoint from
// the training and validation clips.
func camera(ds *dataset.Instance, seed int64, clipSec float64) func(int) *dataset.ClipTruth {
	if seed < 0 {
		seed = -seed
	}
	return ds.Camera(int(seed%1000000), clipSec)
}

// setup runs fn once per set-up repetition and reports the median time,
// each repetition divided by its machine factor (calib.go), as setup_s; the
// traced run, which reports no set-up time, runs it once.
func (c *runCtx) setup(fn func() error) error {
	if c.traced {
		id := c.tr.begin("setup", laneMain, -1, 0)
		defer c.tr.end(id)
		return fn()
	}
	var t timing
	c.gaugeStart()
	for i := 0; i < c.sz.setupReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		d := time.Since(t0)
		t.add(c.factor(), ms(d))
	}
	c.set("setup_s", median(t.norm)/1000)
	c.rep.Dists["setup"] = summarize(t.norm)
	c.rep.Dists["setup_raw"] = summarize(t.raw)
	return nil
}

func runExtract(c *runCtx, sh extractShape) error {
	var sys *core.System
	var metric core.Metric
	if err := c.setup(func() (err error) {
		sys, metric, err = train(sh.dataset, sh.spec)
		return err
	}); err != nil {
		return err
	}
	cam := camera(sys.DS, c.seed, sh.clipSec)
	next := 0
	fresh := func(n int) []*dataset.ClipTruth {
		clips := make([]*dataset.ClipTruth, n)
		for i := range clips {
			clips[i] = cam(next)
			next++
		}
		return clips
	}
	if c.traced {
		return traceExtract(c, sh, sys, fresh)
	}

	// Slices through RunSet at the default worker count, and after each
	// slice a few earlier clips again, one clip per RunSet call. The two are
	// interleaved so that both sample the whole run: the box's interference
	// comes in bursts of about a second, and a median over the run shrugs
	// off a burst that a phase of its own would sit inside. For the same
	// reason the throughput is the median slice's, not total over total.
	//
	// A clip extracted again gets a new cache identity, so it is as cold as
	// the first time: op2 is the cold latency of one clip, and its tracks
	// must equal the slice's, whatever the worker count was.
	//
	// Each round of a slice and its single clips is one stretch for the
	// machine factor (calib.go): its times are divided by the factor, its
	// rate multiplied.
	var slices, singles timing
	var sliceRate []float64
	var accTracks, refs [][]*query.Track
	var accClips []*dataset.ClipTruth
	again := camera(sys.DS, c.seed, sh.clipSec)
	c.gaugeStart()
	deadline := time.Now().Add(c.phase(1))
	for n := 0; n < accSlices || time.Now().Before(deadline); n++ {
		clips := fresh(sh.slice)
		t0 := time.Now()
		res := sys.RunSet(sh.cfg, clips)
		sliceD := time.Since(t0)
		for i, tracks := range res.PerClip {
			c.op(tracks != nil, "slice %d clip %d: no result", n, i)
		}
		if n < accSlices {
			accTracks = append(accTracks, res.PerClip...)
			accClips = append(accClips, clips...)
		}
		refs = append(refs, res.PerClip...)
		var singleMS []float64
		for k := 0; k < sh.singles; k++ {
			i := len(singles.raw) + k
			clip := again(i)
			t0 := time.Now()
			res := sys.RunSet(sh.cfg, []*dataset.ClipTruth{clip})
			singleMS = append(singleMS, ms(time.Since(t0)))
			c.op(reflect.DeepEqual(res.PerClip[0], refs[i]), "clip %d: tracks alone differ from tracks in a slice", i)
		}
		f := c.factor()
		slices.add(f, ms(sliceD))
		singles.add(f, singleMS...)
		sliceRate = append(sliceRate, float64(sh.slice)*sh.clipSec/sliceD.Seconds()*f)
	}
	c.set("throughput", median(sliceRate))
	c.setTiming("op", &slices)
	c.setTiming("op2", &singles)
	c.set("quality", metric.Accuracy(accTracks, accClips))
	return nil
}

// traceExtract is the traced run: the same clips three ways (RunSet at
// the default worker count, RunSet at one worker, and the benchmark's own
// replay of the clip loop with a span and a timer around every layer
// call), checking that all three produce the same tracks.
func traceExtract(c *runCtx, sh extractShape, sys *core.System, fresh func(int) []*dataset.ClipTruth) error {
	lc := &layerClock{}
	cache0 := video.GlobalCacheStats()

	var slices [][]*dataset.ClipTruth
	var want [][][]*query.Track
	breakdown := map[costmodel.Op]float64{}
	var videoS, wallN float64
	deadline := time.Now().Add(c.phase(0.8))
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		clips := fresh(sh.slice)
		id := c.tr.begin("core.RunSet", laneMain, -1, n)
		t0 := time.Now()
		res := sys.RunSet(sh.cfg, clips)
		wallN += time.Since(t0).Seconds()
		c.tr.end(id)
		videoS += float64(sh.slice) * sh.clipSec
		slices = append(slices, clips)
		want = append(want, res.PerClip)
		for op, v := range res.Breakdown {
			breakdown[op] += v
		}
	}

	// One worker, fresh cache identities for the same worlds.
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	var wall1 float64
	for n, clips := range slices {
		again := recloneClips(clips, nil, nil)
		id := c.tr.begin("core.RunSet w1", laneMain, -1, n)
		t0 := time.Now()
		res := sys.RunSet(sh.cfg, again)
		wall1 += time.Since(t0).Seconds()
		c.tr.end(id)
		for i := range res.PerClip {
			c.op(reflect.DeepEqual(res.PerClip[i], want[n][i]), "slice %d clip %d: one worker differs from default workers", n, i)
		}
	}

	// The replay.
	var wallR float64
	for n, clips := range slices {
		again := recloneClips(clips, lc, c.tr)
		got := make([][]*query.Track, len(again))
		t0 := time.Now()
		for i, ct := range again {
			got[i] = replayClip(sys, sh.cfg, ct, lc, c.tr, n*sh.slice+i)
		}
		wallR += time.Since(t0).Seconds()
		for i := range got {
			c.op(reflect.DeepEqual(got[i], want[n][i]), "slice %d clip %d: replay differs from RunSet", n, i)
		}
	}

	cache1 := video.GlobalCacheStats()
	c.set("core.w1_video_s_per_s", videoS/wall1)
	c.set("core.parallel_speedup", wall1/wallN)
	c.set("core.replay_overhead_ratio", wallR/wall1)
	lc.report(c, breakdown)
	setCacheDelta(c, cache0, cache1)
	microbench(c, slices[0][0])
	return nil
}

func setCacheDelta(c *runCtx, a, b video.CacheStats) {
	hits, misses := b.Hits-a.Hits, b.Misses-a.Misses
	if hits+misses > 0 {
		c.set("video.cache_hit_rate", float64(hits)/float64(hits+misses))
	}
	c.set("video.cache_evictions", float64(b.Evictions-a.Evictions))
}
