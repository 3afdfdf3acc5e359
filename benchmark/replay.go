package main

import (
	"context"
	"sync/atomic"
	"time"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/nn"
	"otif/internal/proxy"
	"otif/internal/query"
	"otif/internal/track"
	"otif/internal/video"
	"otif/internal/vidsim"
)

// The replay is the benchmark's copy of the clip loop inside
// core.System.RunSet, written against the layers' exported functions so
// that a timer and a span can sit around each call. The traced runs check
// its tracks against RunSet's, so it cannot drift from the product
// unnoticed.

// layerClock accumulates busy time and work counts per layer. The render
// fields are written by the reader's decode-ahead goroutine too.
type layerClock struct {
	renderNS, framesRendered atomic.Int64

	nextNS, framesRead int64

	scoreNS, groupNS                       int64
	framesScored, framesSkipped, windows   int64
	windowPx, framePx                      float64
	detectNS, detectCalls, detections      int64
	detectPx                               float64
	updateNS, updates, finishNS            int64
	refineNS, refineTracks, refineExtended int64
}

// timedSource is the wrapper around FrameSource.Frame that stands where a
// decoder would: it times the simulator's render.
type timedSource struct {
	src video.FrameSource
	lc  *layerClock
	tr  *tracer
}

func (s *timedSource) Frame(idx int) *video.Frame {
	id := s.tr.begin("vidsim.Render", lanePrefetch, -1, idx)
	t0 := time.Now()
	f := s.src.Frame(idx)
	s.lc.renderNS.Add(int64(time.Since(t0)))
	s.lc.framesRendered.Add(1)
	s.tr.end(id)
	return f
}

func (s *timedSource) Len() int { return s.src.Len() }
func (s *timedSource) FPS() int { return s.src.FPS() }

// recloneClips returns the same worlds behind new cached sources, so a
// second pass over them starts with a cold frame cache like the first.
// With a clock, the sources also time the render.
func recloneClips(clips []*dataset.ClipTruth, lc *layerClock, tr *tracer) []*dataset.ClipTruth {
	out := make([]*dataset.ClipTruth, len(clips))
	for i, ct := range clips {
		out[i] = &dataset.ClipTruth{World: ct.World, Clip: &video.Clip{ID: ct.Clip.ID, Source: cachedSource(ct.World, lc, tr)}}
	}
	return out
}

func cachedSource(w *vidsim.World, lc *layerClock, tr *tracer) video.FrameSource {
	var src video.FrameSource = &vidsim.Source{World: w}
	if lc != nil {
		src = &timedSource{src: src, lc: lc, tr: tr}
	}
	return video.NewCachedSource(src)
}

// replayClip extracts one clip as RunSet's pooled clip loop does.
func replayClip(sys *core.System, cfg core.Config, ct *dataset.ClipTruth, lc *layerClock, tr *tracer, clipNo int) []*query.Track {
	clipSpan := tr.begin("clip", laneMain, -1, clipNo)
	defer tr.end(clipSpan)

	prec := nn.ActivePrecision()
	acct := costmodel.NewAccountant()
	nomW, nomH, fps := sys.DS.Cfg.NomW, sys.DS.Cfg.NomH, sys.DS.Cfg.FPS
	detW, detH := cfg.DetRes(nomW, nomH)
	detector := &detect.Detector{
		Cfg:        detect.Config{Arch: cfg.Arch, Width: detW, Height: detH, ConfThresh: cfg.DetConf},
		Background: sys.Background,
		Classify:   sys.Classifier,
		Acct:       acct,
		Prec:       prec,
		Arena:      detect.GetArena(),
	}
	defer detector.Arena.Release()
	defer detector.Release()

	var pm *proxy.Model
	var ws *proxy.WindowSet
	var grid *proxy.Grid
	if cfg.UseProxy && len(sys.Proxies) > 0 {
		pm = sys.Proxies[cfg.ProxyIdx]
		ws = proxy.NewWindowSet(nomW, nomH, cfg.Arch.PerPixelCost(), cfg.DetScale, sys.WindowSizes)
		grid = proxy.NewGrid(nomW, nomH)
	}

	// The tracker as core.System.newTracker builds it: a track survives
	// 0.8 s of unmatched processed frames, at least two.
	misses := int(0.8 * float64(fps) / float64(cfg.Gap))
	if misses < 2 {
		misses = 2
	}
	var tracker track.Tracker
	if cfg.Tracker == core.TrackerRecurrent && sys.Recurrent != nil {
		t := track.NewRecurrentTracker(sys.Recurrent, acct)
		t.MaxMisses, t.Prec = misses, prec
		tracker = t
	} else {
		t := track.NewSORT()
		t.MaxMisses = misses
		tracker = t
	}

	scaleArea := float64(detW) * float64(detH) / (float64(nomW) * float64(nomH))
	reader := video.NewReaderContext(context.Background(), ct.Clip, cfg.Gap, detW, detH, acct)
	defer reader.Close()
	for {
		id := tr.begin("video.Next", laneMain, clipSpan, -1)
		t0 := time.Now()
		frame, idx := reader.Next()
		lc.nextNS += int64(time.Since(t0))
		tr.end(id)
		if frame == nil {
			break
		}
		lc.framesRead++

		var dets []detect.Detection
		if pm != nil {
			id = tr.begin("proxy.Score", laneMain, clipSpan, idx)
			t0 = time.Now()
			scores := pm.ScorePrec(prec, frame, sys.Background, acct)
			lc.scoreNS += int64(time.Since(t0))
			tr.end(id)

			id = tr.begin("proxy.Group", laneMain, clipSpan, idx)
			t0 = time.Now()
			proxy.ThresholdInto(grid, scores, cfg.ProxyThresh)
			wins := proxy.Group(grid, ws)
			lc.groupNS += int64(time.Since(t0))
			tr.end(id)

			lc.framesScored++
			lc.framePx += float64(nomW) * float64(nomH)
			lc.windows += int64(len(wins))
			var area float64
			for _, w := range wins {
				area += w.Clip(geom.Rect{W: float64(nomW), H: float64(nomH)}).Area()
			}
			lc.windowPx += area
			if len(wins) == 0 {
				lc.framesSkipped++
			} else {
				id = tr.begin("detect.DetectWindows", laneMain, clipSpan, idx)
				t0 = time.Now()
				dets = detector.DetectWindows(frame, idx, wins)
				lc.detectNS += int64(time.Since(t0))
				tr.end(id)
				lc.detectCalls++
				lc.detectPx += area * scaleArea
			}
		} else {
			id = tr.begin("detect.Detect", laneMain, clipSpan, idx)
			t0 = time.Now()
			dets = detector.Detect(frame, idx)
			lc.detectNS += int64(time.Since(t0))
			tr.end(id)
			lc.detectCalls++
			lc.detectPx += float64(detW) * float64(detH)
		}
		lc.detections += int64(len(dets))

		id = tr.begin("track.Update", laneMain, clipSpan, idx)
		t0 = time.Now()
		tracker.Update(&track.FrameContext{FrameIdx: idx, GapFrames: cfg.Gap}, dets)
		lc.updateNS += int64(time.Since(t0))
		tr.end(id)
		lc.updates++
	}

	id := tr.begin("track.Finish", laneMain, clipSpan, -1)
	t0 := time.Now()
	tracks := track.PruneShort(tracker.Finish(), 2)
	lc.finishNS += int64(time.Since(t0))
	tr.end(id)

	id = tr.begin("refine.QueryTracks", laneMain, clipSpan, -1)
	t0 = time.Now()
	out := sys.QueryTracks(cfg, tracks, ct.Clip.Len())
	lc.refineNS += int64(time.Since(t0))
	tr.end(id)
	if cfg.Refine {
		for _, qt := range out {
			lc.refineTracks++
			if len(qt.Path) > len(qt.Dets) {
				lc.refineExtended++
			}
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report turns the clock into the per-layer metrics. breakdown is the
// cost model's simulated split for the same clips; a drift metric is the
// layer's share of measured busy time minus its share of simulated time.
func (lc *layerClock) report(c *runCtx, breakdown map[costmodel.Op]float64) {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	c.set("vidsim.render_busy_s", sec(lc.renderNS.Load()))
	c.set("vidsim.frames_rendered", float64(lc.framesRendered.Load()))
	c.set("video.next_wait_s", sec(lc.nextNS))
	c.set("video.frames_read", float64(lc.framesRead))

	c.set("proxy.score_busy_s", sec(lc.scoreNS))
	c.set("proxy.group_busy_s", sec(lc.groupNS))
	c.set("proxy.frames_scored", float64(lc.framesScored))
	c.set("proxy.windows_per_frame", ratio(float64(lc.windows), float64(lc.framesScored)))
	c.set("proxy.window_px_share", ratio(lc.windowPx, lc.framePx))
	c.set("proxy.frames_skipped_share", ratio(float64(lc.framesSkipped), float64(lc.framesScored)))

	c.set("detect.busy_s", sec(lc.detectNS))
	c.set("detect.calls", float64(lc.detectCalls))
	c.set("detect.px_processed", lc.detectPx)
	c.set("detect.ns_per_px", ratio(float64(lc.detectNS), lc.detectPx))
	c.set("detect.dets_per_frame", ratio(float64(lc.detections), float64(lc.framesRead)))

	c.set("track.update_busy_s", sec(lc.updateNS))
	c.set("track.updates", float64(lc.updates))
	c.set("track.finish_busy_s", sec(lc.finishNS))

	c.set("refine.busy_s", sec(lc.refineNS))
	c.set("refine.tracks", float64(lc.refineTracks))
	c.set("refine.extended_share", ratio(float64(lc.refineExtended), float64(lc.refineTracks)))

	busy := map[costmodel.Op]float64{
		costmodel.OpDecode: sec(lc.renderNS.Load()),
		costmodel.OpProxy:  sec(lc.scoreNS + lc.groupNS),
		costmodel.OpDetect: sec(lc.detectNS),
		costmodel.OpTrack:  sec(lc.updateNS + lc.finishNS),
	}
	var busySum, simSum float64
	for op, v := range busy {
		busySum += v
		simSum += breakdown[op]
	}
	for op, v := range busy {
		c.set("costmodel.drift_"+string(op), ratio(v, busySum)-ratio(breakdown[op], simSum))
	}
}

// microbench times the two kernels the ledger tracks on their own: the
// box-filter downsample of one rendered frame and a 32x32 assignment.
func microbench(c *runCtx, ct *dataset.ClipTruth) {
	f := (&vidsim.Source{World: ct.World}).Frame(0)
	var ds []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		f.Downsample(f.W/2, f.H/2)
		ds = append(ds, float64(time.Since(t0))/float64(f.W*f.H))
	}
	c.set("video.downsample_ns_per_px", median(ds))

	cost := make([][]float64, 32)
	x := uint64(c.seed)*2654435761 + 1
	for i := range cost {
		cost[i] = make([]float64, 32)
		for j := range cost[i] {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			cost[i][j] = float64(x%10000) / 100
		}
	}
	var hs []float64
	var scratch track.AssignScratch
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		scratch.Hungarian(cost)
		hs = append(hs, float64(time.Since(t0)))
	}
	c.set("track.hungarian32_ns", median(hs))
}
