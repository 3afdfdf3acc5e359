package tuner

import (
	"context"
	"fmt"
	"slices"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/obs"
	"otif/internal/parallel"
	"otif/internal/proxy"
	"otif/internal/video"
)

// Pre-registered metric handles for the tuning loop.
var (
	metIterations = obs.Default.Counter("tune.iterations")
	metCandidates = obs.Default.Counter("tune.candidates")
)

// DefaultCoarseness is the paper's tuning coarseness C = 30%: each tuning
// step asks every module for a candidate configuration roughly 30% faster.
const DefaultCoarseness = 0.30

// Options configures the joint tuner.
type Options struct {
	// C is the tuning coarseness (fractional speedup per step).
	C float64
	// MaxIters bounds the number of greedy iterations.
	MaxIters int
	// Archs are the detector architectures considered by the detection
	// module.
	Archs []detect.Arch

	// Module mask for the ablation study (Table 4): which modules may
	// propose candidate configurations. DefaultOptions enables all.
	UseDetection bool
	UseTracking  bool
	UseProxy     bool
	// Tracker is the tracking method configurations use (the "+Sampling
	// Rate" ablation row pairs the tracking module with SORT; the full
	// system uses the recurrent tracker).
	Tracker core.TrackerKind

	// Progress, when non-nil, receives structured tuning events: an
	// EventCacheSnapshot after the caching phase, an EventTuneIter as
	// each greedy iteration starts, and an EventCandidate per evaluated
	// candidate. Candidates evaluate on parallel workers, so the
	// callback must be safe for concurrent use.
	Progress obs.Progress
}

// DefaultOptions returns the paper's tuner settings.
func DefaultOptions() Options {
	return Options{
		C:        DefaultCoarseness,
		MaxIters: 12,
		Archs:    []detect.Arch{detect.ArchYOLO, detect.ArchRCNN},

		UseDetection: true,
		UseTracking:  true,
		UseProxy:     true,
		Tracker:      core.TrackerRecurrent,
	}
}

// cache holds the per-module information gathered in the tuner's caching
// phase (§3.5): the detection module's runtime/accuracy grid over
// (architecture, resolution), and the proxy module's per-frame cell scores
// at each resolution plus the theta_best detections used to measure
// recall.
type cache struct {
	detTime map[detKey]float64
	detAcc  map[detKey]float64

	// proxyCells keeps, per model and frame, the cells scoring at least
	// the lowest threshold an estimate can ask for (the ladder's, or
	// theta_best's if lower), in ascending cell order: every cell a
	// threshold can make positive, and none of the rest.
	proxyCells [][][]cellScore // [model][frame]
	bestBoxes  [][]geom.Rect   // [frame] theta_best detections
	frameCount int

	// proxyEst memoizes estProxyCost results. The cached frames are
	// immutable after buildCache, so a proxy setting's estimate depends
	// only on the key; without the memo every tuning iteration re-ran
	// Threshold+Group over all cached frames for the full (model x
	// threshold) grid. nextProxy fills the grid's missing entries on the
	// worker pool and stores them in grid order; only the tuning goroutine
	// reads or writes the map.
	proxyEst map[proxyEstKey]proxyEstVal
}

// cellScore is one proxy cell and its score.
type cellScore struct {
	cell  int
	score float64
}

type detKey struct {
	arch  detect.Arch
	scale float64
}

// proxyEstKey captures every input that can change an estProxyCost
// result: the proxy model, its threshold, and the detector architecture
// and scale (which determine the window set's sizes and costs).
type proxyEstKey struct {
	model  int
	thresh float64
	arch   detect.Arch
	scale  float64
}

type proxyEstVal struct {
	est    float64
	recall float64
}

// Tune runs OTIF's greedy joint parameter tuner (§3.5) and returns the
// speed-accuracy curve Theta, slowest first. The system must already be
// fully trained (FinishTraining done). The caching phase evaluates the
// detection grid and proxy scores; the tuning phase then iterates from
// theta_best, asking each module for a ~C-faster candidate and keeping the
// most accurate, until no module can offer further speedup.
func Tune(sys *core.System, metric core.Metric, opts Options) []Point {
	// context.Background is never canceled, so the error is always nil.
	curve, _ := TuneContext(context.Background(), sys, metric, opts)
	return curve
}

// TuneContext is Tune with cooperative cancellation at tuner-iteration
// boundaries: ctx is checked before the caching phase, before the
// theta_best evaluation, and at the top of every greedy iteration. On
// cancellation it returns the curve built so far together with a
// *core.PartialError (stage "tune", Done = completed iterations)
// wrapping ctx.Err(). Candidates already submitted for the current
// iteration run to completion, mirroring RunSetContext's clip-boundary
// drain.
func TuneContext(ctx context.Context, sys *core.System, metric core.Metric, opts Options) ([]Point, error) {
	if opts.C == 0 {
		// Zero-valued options select the paper defaults; the progress
		// hook rides along rather than being defaulted away.
		prog := opts.Progress
		opts = DefaultOptions()
		opts.Progress = prog
	}
	partial := func(done int, err error) error {
		return &core.PartialError{Stage: "tune", Done: done, Total: opts.MaxIters, Err: err}
	}
	if err := ctx.Err(); err != nil {
		return nil, partial(0, err)
	}
	ctx, tuneSpan := obs.StartSpan(ctx, "tune")
	tuneSpan.SetStage("tune")
	defer tuneSpan.End()
	_, cacheSpan := obs.StartSpan(ctx, "tune.cache")
	cacheSpan.SetStage("tune")
	// evals holds every evaluation of this call by configuration: theta_best
	// is also a cell of the detection grid, and the detection module's first
	// candidate is another. Evaluate is a deterministic function of the
	// configuration, so a repeat is looked up; it is still charged to
	// sys.Acct and still reported as a candidate.
	evals := map[core.Config]Point{}
	c := buildCache(sys, metric, opts, evals)
	cacheSpan.End()
	opts.Progress.Emit(obs.Event{
		Kind: obs.EventCacheSnapshot, CacheHitRate: video.GlobalCacheStats().HitRate(),
	})
	if err := ctx.Err(); err != nil {
		return nil, partial(0, err)
	}

	cfg := sys.Best
	cfg.Tracker = opts.Tracker
	cfg.Refine = sys.DS.FixedCamera && opts.Tracker == core.TrackerRecurrent
	if !opts.UseTracking {
		cfg.Gap = 1
	}
	cur, ok := evals[cfg]
	if !ok {
		cur = Evaluate(sys, cfg, sys.DS.Val, metric)
		evals[cfg] = cur
	}
	sys.Acct.Add(costmodel.OpTune, cur.Runtime)
	curve := []Point{cur}

	for iter := 0; iter < opts.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return curve, partial(iter, err)
		}
		metIterations.Inc()
		_, iterSpan := obs.StartSpan(ctx, "tune.iter")
		iterSpan.SetStage("tune")
		opts.Progress.Emit(obs.Event{
			Kind: obs.EventTuneIter, Iteration: iter, Total: opts.MaxIters,
		})
		var cands []core.Config
		if opts.UseDetection {
			if next, ok := c.nextDetection(cur.Cfg, opts); ok {
				cands = append(cands, next)
			}
		}
		if opts.UseProxy {
			if next, ok := c.nextProxy(sys, cur.Cfg, opts); ok {
				cands = append(cands, next)
			}
		}
		if opts.UseTracking {
			if next, ok := nextTracking(cur.Cfg, opts); ok {
				cands = append(cands, next)
			}
		}
		if len(cands) == 0 {
			iterSpan.End()
			break
		}
		// Evaluate the iteration's module candidates concurrently; the
		// tuning-cost charges and the argmax run in candidate order
		// afterwards, so the chosen point and the accountant totals are
		// independent of the worker count.
		metCandidates.Add(int64(len(cands)))
		points := parallel.Map(len(cands), func(i int) Point {
			p, ok := evals[cands[i]]
			if !ok {
				p = Evaluate(sys, cands[i], sys.DS.Val, metric)
			}
			if opts.Progress != nil {
				opts.Progress(obs.Event{
					Kind: obs.EventCandidate, Iteration: iter, Index: i,
					Config: fmt.Sprintf("%v", p.Cfg), Runtime: p.Runtime, Accuracy: p.Accuracy,
				})
			}
			return p
		})
		best := Point{Accuracy: -1}
		for _, p := range points {
			evals[p.Cfg] = p
			sys.Acct.Add(costmodel.OpTune, p.Runtime)
			if p.Accuracy > best.Accuracy {
				best = p
			}
		}
		curve = append(curve, best)
		cur = best
		iterSpan.End()
		if l := obs.Log(); l != nil {
			l.Info("otif: tune iteration", "iter", iter, "candidates", len(cands),
				"runtime", best.Runtime, "accuracy", best.Accuracy)
		}
	}
	if l := obs.Log(); l != nil {
		l.Info("otif: tune finished", "points", len(curve))
	}
	return curve, nil
}

// buildCache runs the caching phase. Both halves fan out on the worker
// pool — the (arch, scale) detection grid cells are independent
// evaluations, and the per-clip proxy-score extraction is independent per
// clip — with all reductions (map fills, accountant charges, frame
// concatenation) performed in grid/clip order afterwards so the cache is
// identical at any worker count. The grid's evaluations are recorded in
// evals.
func buildCache(sys *core.System, metric core.Metric, opts Options, evals map[core.Config]Point) *cache {
	c := &cache{
		detTime:  map[detKey]float64{},
		detAcc:   map[detKey]float64{},
		proxyEst: map[proxyEstKey]proxyEstVal{},
	}
	if !opts.UseDetection && !opts.UseProxy {
		return c
	}

	// Detection grid: runtime and accuracy of each (arch, scale) with the
	// other parameters from theta_best.
	var keys []detKey
	for _, arch := range opts.Archs {
		for _, scale := range core.DetScaleLadder {
			keys = append(keys, detKey{arch, scale})
		}
	}
	gridPts := parallel.Map(len(keys), func(i int) Point {
		cfg := sys.Best
		cfg.Arch = keys[i].arch
		cfg.DetScale = keys[i].scale
		cfg.Tracker = opts.Tracker
		cfg.Refine = sys.DS.FixedCamera && opts.Tracker == core.TrackerRecurrent
		return Evaluate(sys, cfg, sys.DS.Val, metric)
	})
	for i, k := range keys {
		evals[gridPts[i].Cfg] = gridPts[i]
		sys.Acct.Add(costmodel.OpTune, gridPts[i].Runtime)
		c.detTime[k] = gridPts[i].Runtime
		c.detAcc[k] = gridPts[i].Accuracy
	}

	if !opts.UseProxy {
		return c
	}
	// Proxy cache: the cells each trained resolution scores at or above
	// the lowest threshold on the validation frames sampled at
	// theta_best's gap, plus theta_best detections for recall measurement.
	floor := slices.Min(core.ProxyThreshLadder)
	if sys.Best.UseProxy && sys.Best.ProxyThresh < floor {
		floor = sys.Best.ProxyThresh
	}
	type clipCache struct {
		boxes [][]geom.Rect
		cells [][][]cellScore // [model][frame]
		acct  *costmodel.Accountant
	}
	perClip := parallel.Map(len(sys.DS.Val), func(i int) clipCache {
		ct := sys.DS.Val[i]
		cc := clipCache{
			cells: make([][][]cellScore, len(sys.Proxies)),
			acct:  costmodel.NewAccountant(),
		}
		detector := sys.Detector(sys.Best, cc.acct)
		reader := video.NewReader(ct.Clip, sys.Best.Gap, detector.Cfg.Width, detector.Cfg.Height, cc.acct)
		for {
			frame, idx := reader.Next()
			if frame == nil {
				break
			}
			dets := detector.Detect(frame, idx)
			boxes := make([]geom.Rect, len(dets))
			for k, d := range dets {
				boxes[k] = d.Box
			}
			cc.boxes = append(cc.boxes, boxes)
			for mi, m := range sys.Proxies {
				var cells []cellScore
				for cell, score := range m.Score(frame, sys.Background, cc.acct) {
					if score >= floor {
						cells = append(cells, cellScore{cell, score})
					}
				}
				cc.cells[mi] = append(cc.cells[mi], cells)
			}
		}
		return cc
	})
	acct := costmodel.NewAccountant() // cache-phase cost kept off runtime
	c.proxyCells = make([][][]cellScore, len(sys.Proxies))
	for _, cc := range perClip {
		acct.Merge(cc.acct)
		c.bestBoxes = append(c.bestBoxes, cc.boxes...)
		for mi := range sys.Proxies {
			c.proxyCells[mi] = append(c.proxyCells[mi], cc.cells[mi]...)
		}
		c.frameCount += len(cc.boxes)
	}
	sys.Acct.Add(costmodel.OpTune, acct.Total())
	return c
}

// nextDetection returns the detection-module candidate: the (architecture,
// resolution) with maximum cached accuracy among those at least C faster
// than the current detection configuration (§3.5.1).
func (c *cache) nextDetection(cur core.Config, opts Options) (core.Config, bool) {
	curTime, ok := c.detTime[detKey{cur.Arch, cur.DetScale}]
	if !ok {
		return core.Config{}, false
	}
	limit := (1 - opts.C) * curTime
	bestAcc := -1.0
	var bestKey detKey
	// Deterministic iteration order: accuracy ties break toward the
	// faster configuration, then lexicographically, so tuning curves are
	// reproducible across runs (map iteration order is randomized).
	for k, t := range c.detTime {
		if t > limit {
			continue
		}
		a := c.detAcc[k]
		switch {
		case a > bestAcc:
		case a == bestAcc && t < c.detTime[bestKey]:
		case a == bestAcc && t == c.detTime[bestKey] &&
			(k.arch < bestKey.arch || (k.arch == bestKey.arch && k.scale < bestKey.scale)):
		default:
			continue
		}
		bestAcc = a
		bestKey = k
	}
	if bestAcc < 0 {
		return core.Config{}, false
	}
	next := cur
	next.Arch = bestKey.arch
	next.DetScale = bestKey.scale
	return next, true
}

// nextProxy returns the proxy-module candidate: the (resolution, threshold)
// pair with highest recall among those whose estimated per-frame runtime
// (proxy inference plus windowed detector execution) is at least C faster
// than the current configuration's estimated per-frame runtime (§3.5.2).
//
// The grid's estimates that are not yet memoized are computed on the
// worker pool; each is a pure function of the cached scores and theta_best
// boxes, and the memo is filled and the winner picked in grid order
// afterwards, so the candidate is the same at any worker count.
func (c *cache) nextProxy(sys *core.System, cur core.Config, opts Options) (core.Config, bool) {
	if len(sys.Proxies) == 0 || c.frameCount == 0 {
		return core.Config{}, false
	}
	ws := proxy.NewWindowSet(sys.DS.Cfg.NomW, sys.DS.Cfg.NomH,
		cur.Arch.PerPixelCost(), cur.DetScale, sys.WindowSizes)

	var missing []proxyEstKey
	for mi := range sys.Proxies {
		for _, th := range core.ProxyThreshLadder {
			key := proxyEstKey{model: mi, thresh: th, arch: cur.Arch, scale: cur.DetScale}
			if _, ok := c.proxyEst[key]; !ok {
				missing = append(missing, key)
			}
		}
	}
	vals := parallel.Map(len(missing), func(i int) proxyEstVal {
		return c.proxyEstimate(sys, missing[i], ws)
	})
	for i, key := range missing {
		c.proxyEst[key] = vals[i]
	}

	curCost := c.estConfigCost(sys, cur, ws)
	limit := (1 - opts.C) * curCost

	bestRecall := -1.0
	bestIdx, bestThreshIdx := -1, -1
	for mi := range sys.Proxies {
		for ti, th := range core.ProxyThreshLadder {
			est, recall := c.estProxyCost(sys, cur, mi, th, ws)
			if est <= limit && recall > bestRecall {
				bestRecall = recall
				bestIdx, bestThreshIdx = mi, ti
			}
		}
	}
	if bestIdx < 0 {
		return core.Config{}, false
	}
	next := cur
	next.UseProxy = true
	next.ProxyIdx = bestIdx
	next.ProxyThresh = core.ProxyThreshLadder[bestThreshIdx]
	return next, true
}

// estConfigCost estimates the current configuration's per-frame detection
// cost: full-frame detection when no proxy is active, otherwise the cached
// proxy estimate for the active proxy settings.
func (c *cache) estConfigCost(sys *core.System, cur core.Config, ws *proxy.WindowSet) float64 {
	if !cur.UseProxy {
		return ws.FullFrameCost()
	}
	est, _ := c.estProxyCost(sys, cur, cur.ProxyIdx, cur.ProxyThresh, ws)
	return est
}

// estProxyCost returns the mean per-frame runtime estimate and the recall
// (fraction of theta_best detections covered by the windows) of a proxy
// setting over the cached validation frames. Results are memoized per
// (model, threshold, detector arch, detector scale): the cached frames
// are immutable, so repeated grid sweeps across tuning iterations hit the
// memo instead of re-running Threshold+Group over every frame. ws must be
// the window set built for cur's detector arch and scale.
func (c *cache) estProxyCost(sys *core.System, cur core.Config, modelIdx int, thresh float64, ws *proxy.WindowSet) (est, recall float64) {
	key := proxyEstKey{model: modelIdx, thresh: thresh, arch: cur.Arch, scale: cur.DetScale}
	v, ok := c.proxyEst[key]
	if !ok {
		v = c.proxyEstimate(sys, key, ws)
		c.proxyEst[key] = v
	}
	return v.est, v.recall
}

// proxyEstimate computes the estimate estProxyCost memoizes for key. It
// only reads the cache, so estimates of different keys may run
// concurrently; ws must be the window set of key's arch and scale.
//
// Each frame marks the cached cells scoring at least key.thresh on an
// empty grid, groups them, and unmarks them: the grid and the positive
// list are exactly what ThresholdInto gives over the frame's full scores.
func (c *cache) proxyEstimate(sys *core.System, key proxyEstKey, ws *proxy.WindowSet) proxyEstVal {
	m := sys.Proxies[key.model]
	var totalCost float64
	covered, totalDets := 0, 0
	grid := proxy.NewGrid(sys.DS.Cfg.NomW, sys.DS.Cfg.NomH)
	var grouper proxy.Grouper
	pos := make([]int, 0, len(grid.Pos))
	for fi := 0; fi < c.frameCount; fi++ {
		pos = pos[:0]
		for _, cs := range c.proxyCells[key.model][fi] {
			if cs.score >= key.thresh {
				grid.Pos[cs.cell] = true
				pos = append(pos, cs.cell)
			}
		}
		wins := grouper.Group(grid, pos, ws)
		for _, cell := range pos {
			grid.Pos[cell] = false
		}
		totalCost += costmodel.ProxyCost(m.ResW, m.ResH)
		for _, w := range wins {
			idx, ok := ws.IndexOf(int(w.W), int(w.H))
			if !ok {
				// Group only emits window sizes drawn from ws; if a window
				// is somehow unknown, bill it conservatively at the
				// full-frame cost instead of silently picking a size.
				totalCost += ws.FullFrameCost()
				continue
			}
			totalCost += ws.Costs[idx]
		}
		for _, b := range c.bestBoxes[fi] {
			totalDets++
			for _, w := range wins {
				if w.Intersect(b).Area() >= 0.5*b.Area() {
					covered++
					break
				}
			}
		}
	}
	v := proxyEstVal{est: totalCost / float64(c.frameCount), recall: 1}
	if totalDets > 0 {
		v.recall = float64(covered) / float64(totalDets)
	}
	return v
}

// nextTracking returns the tracking-module candidate: the next sampling gap
// reaching roughly a C speedup (§3.5.3).
func nextTracking(cur core.Config, opts Options) (core.Config, bool) {
	g := core.NextGapForSpeedup(cur.Gap, opts.C)
	if g == cur.Gap {
		return core.Config{}, false
	}
	next := cur
	next.Gap = g
	return next, true
}

// FastestWithin returns the fastest point whose accuracy is within tol of
// the best accuracy among the points (the paper's Table 2 selection rule:
// fastest configuration within 5% of best achieved accuracy).
func FastestWithin(points []Point, tol float64) (Point, bool) {
	return FastestAtLeast(points, BestAccuracy(points)-tol)
}

// FastestAtLeast is the one "fastest within tolerance" rule: it returns
// the fastest point whose accuracy is at least floor, the first of equal
// runtimes winning, and false when no point reaches the floor. Callers
// differ only in what the floor is measured from: the best of one curve
// (FastestWithin), of every method (Table 2) or of every variant
// (Table 4).
func FastestAtLeast(points []Point, floor float64) (Point, bool) {
	var out Point
	found := false
	for _, p := range points {
		if p.Accuracy >= floor && (!found || p.Runtime < out.Runtime) {
			out = p
			found = true
		}
	}
	return out, found
}

// BestAccuracy returns the highest accuracy among the points of every
// curve, or -1 when they have none. A NaN accuracy is never the best.
func BestAccuracy(curves ...[]Point) float64 {
	best := -1.0
	for _, c := range curves {
		for _, p := range c {
			if p.Accuracy > best {
				best = p.Accuracy
			}
		}
	}
	return best
}
