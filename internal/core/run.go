package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"otif/internal/costmodel"
	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/obs"
	"otif/internal/parallel"
	"otif/internal/proxy"
	"otif/internal/query"
	"otif/internal/track"
	"otif/internal/video"
)

// Pre-registered metric handles for the clip execution path. Handles are
// package-level so the per-frame hot path records without map lookups or
// allocation (see internal/obs).
var (
	metClips         = obs.Default.Counter("run.clips")
	metFrames        = obs.Default.Counter("run.frames")
	metTracksPerClip = obs.Default.Histogram("run.tracks_per_clip", 1, 2, 5, 10, 20, 50, 100)
)

// FrameObserver sees one processed frame's detections, before the tracker
// does. dets is carved from the clip's detection arena and is valid only
// during the call: an observer that keeps anything copies it out.
type FrameObserver func(frameIdx int, dets []detect.Detection)

// Detector returns the detector of configuration cfg over this system's
// background model and classifier, charging acct.
func (s *System) Detector(cfg Config, acct *costmodel.Accountant) *detect.Detector {
	w, h := cfg.DetRes(s.DS.Cfg.NomW, s.DS.Cfg.NomH)
	return &detect.Detector{
		Cfg:        detect.Config{Arch: cfg.Arch, Width: w, Height: h, ConfThresh: cfg.DetConf},
		Background: s.Background,
		Classify:   s.Classifier,
		Acct:       acct,
	}
}

// ExtractClip is the per-clip body RunSet and streaming ingest share: it
// runs cfg over clip and returns the clip's stored tracks (QueryTracks of
// what TrackClip tracked), charging acct. ctx bounds the reader's
// decode-ahead producer.
func (s *System) ExtractClip(ctx context.Context, cfg Config, clip *video.Clip, acct *costmodel.Accountant) []*query.Track {
	return s.QueryTracks(cfg, s.TrackClip(ctx, cfg, clip, acct, nil), clip.Len())
}

// RunClip executes the pipeline of Figure 2 under cfg over one clip, in a
// run.clip span of its own, and returns the pipeline tracks, for callers
// that work on them before (or instead of) storing them. Costs are charged
// to acct; observe may be nil. A body run by RunClips calls TrackClip
// instead: RunClips has opened the clip's span already.
func (s *System) RunClip(cfg Config, clip *video.Clip, acct *costmodel.Accountant, observe FrameObserver) []*track.Track {
	ctx, sp := obs.StartSpan(context.Background(), "run.clip")
	sp.SetStage("extract")
	defer sp.End()
	return s.TrackClip(ctx, cfg, clip, acct, observe)
}

// clipBuffers is the working memory of one clip: the detection arena, the
// detector's analysis scratch, the tracker's scratch and the proxy's grid
// and grouper. TrackClip takes one from clipPool at entry and returns it
// when the clip is done, so a clip reuses the buffers an earlier clip grew
// (the tuner runs candidate after candidate over the same clips). Each
// buffer serves any geometry except the grid, which is rebuilt when the
// dataset's cell grid differs.
type clipBuffers struct {
	arena   detect.Arena
	detect  detect.Scratch
	track   track.Scratch
	grid    *proxy.Grid
	grouper proxy.Grouper
}

// clipPool holds the idle clip working sets of the process. It is not a
// field of System: every System of the process shares it, so a freshly
// trained System starts warm.
var clipPool = sync.Pool{New: func() any { return new(clipBuffers) }}

// gridFor returns the buffers' proxy grid for a nominal frame size.
func (b *clipBuffers) gridFor(nomW, nomH int) *proxy.Grid {
	if w, h := proxy.GridDims(nomW, nomH); b.grid == nil || b.grid.W != w || b.grid.H != h {
		b.grid = proxy.NewGrid(nomW, nomH)
	}
	return b.grid
}

// TrackClip is the clip loop, run in the caller's span: the tracker's
// sampling gap selects frames; on each sampled frame the proxy model (if
// enabled) chooses detector windows; the detector produces detections;
// observe (if non-nil) sees them; the tracker associates them into tracks.
// ctx bounds the reader's decode-ahead producer. The clip runs on a
// working set from clipPool; detection slices are carved from its arena,
// which is safe because trackers copy Detection values into track-owned
// slices: nothing in the returned tracks aliases the working set.
func (s *System) TrackClip(ctx context.Context, cfg Config, clip *video.Clip, acct *costmodel.Accountant, observe FrameObserver) []*track.Track {
	bufs := clipPool.Get().(*clipBuffers)
	detector := s.Detector(cfg, acct)
	detW, detH := detector.Cfg.Width, detector.Cfg.Height
	detector.Arena, detector.Scratch = &bufs.arena, &bufs.detect

	var ws *proxy.WindowSet
	var pm *proxy.Model
	var grid *proxy.Grid
	if cfg.UseProxy && len(s.Proxies) > 0 {
		pm = s.Proxies[min(max(cfg.ProxyIdx, 0), len(s.Proxies)-1)]
		ws = proxy.NewWindowSet(s.DS.Cfg.NomW, s.DS.Cfg.NomH,
			cfg.Arch.PerPixelCost(), cfg.DetScale, s.WindowSizes)
		grid = bufs.gridFor(s.DS.Cfg.NomW, s.DS.Cfg.NomH)
	}

	tracker := s.newTracker(cfg, acct, &bufs.track)
	processFrame := func(frame *video.Frame, idx, gapUsed int) {
		metFrames.Inc()
		var dets []detect.Detection
		if pm != nil {
			scores := pm.Score(frame, s.Background, acct)
			pos := proxy.ThresholdInto(grid, scores, cfg.ProxyThresh)
			wins := bufs.grouper.Group(grid, pos, ws)
			if len(wins) > 0 {
				dets = detector.DetectWindows(frame, idx, wins)
			}
		} else {
			dets = detector.Detect(frame, idx)
		}
		if observe != nil {
			observe(idx, dets)
		}
		tracker.Update(&track.FrameContext{FrameIdx: idx, GapFrames: gapUsed}, dets)
	}

	rec, _ := tracker.(*track.RecurrentTracker)
	if cfg.VariableGap && rec != nil {
		// The variable-rate policy picks each next index from the previous
		// round's confidence, so there is no fixed sequence to decode ahead
		// of; it reads synchronously.
		s.runVariable(cfg, clip, detW, detH, acct, rec, processFrame)
	} else {
		reader := video.NewReaderContext(ctx, clip, cfg.Gap, detW, detH, acct)
		defer reader.Close()
		for {
			frame, idx := reader.Next()
			if frame == nil {
				break
			}
			processFrame(frame, idx, cfg.Gap)
		}
	}
	// Prune single-detection tracks: they mostly correspond to spurious
	// detections (§3.4).
	tracks := track.PruneShort(tracker.Finish(), 2)
	// Not deferred: a clip that panics drops its working set rather than
	// return one whose invariants it may have broken.
	bufs.arena.Reset()
	clipPool.Put(bufs)
	metClips.Inc()
	metTracksPerClip.Observe(float64(len(tracks)))
	return tracks
}

// runVariable executes the Miris-style variable-rate policy: after a
// confident association round the gap doubles (up to cfg.Gap); after a
// low-confidence round it halves (down to 1), re-processing sooner.
// Decode cost is charged like the fixed-rate reader's
// (costmodel.SampledDecodeCost).
func (s *System) runVariable(cfg Config, clip *video.Clip, detW, detH int,
	acct *costmodel.Accountant, rec *track.RecurrentTracker,
	processFrame func(frame *video.Frame, idx, gapUsed int)) {
	const confidenceFloor = 0.75
	gap := cfg.Gap
	idx := 0
	prev := -1
	for idx < clip.Len() {
		skipped := 0
		if prev >= 0 {
			skipped = idx - prev - 1
		}
		acct.Add(costmodel.OpDecode, costmodel.SampledDecodeCost(detW, detH, skipped))
		gapUsed := cfg.Gap
		if prev >= 0 {
			gapUsed = idx - prev
		}
		processFrame(clip.Frame(idx), idx, gapUsed)
		if rec.LastConfidence() < confidenceFloor {
			if gap > 1 {
				gap /= 2
			}
		} else if gap < cfg.Gap {
			gap *= 2
		}
		prev = idx
		idx += gap
	}
}

// newTracker instantiates the tracker selected by cfg on the lent
// scratch. Track termination is time-based: a track survives roughly
// maxMissSeconds of consecutive unmatched processed frames (bridging brief
// detector misses and occlusion merges) regardless of the sampling gap.
func (s *System) newTracker(cfg Config, acct *costmodel.Accountant, scratch *track.Scratch) track.Tracker {
	misses := maxMisses(s.DS.Cfg.FPS, cfg.Gap)
	switch cfg.Tracker {
	case TrackerRecurrent:
		if s.Recurrent != nil {
			t := track.NewRecurrentTracker(s.Recurrent, acct)
			t.MaxMisses, t.Scratch = misses, scratch
			return t
		}
	case TrackerPair:
		if s.Pair != nil {
			t := track.NewPairTracker(s.Pair, acct)
			t.MaxMisses, t.Scratch = misses, scratch
			return t
		}
	}
	t := track.NewSORT()
	t.MaxMisses, t.Scratch = misses, scratch
	return t
}

// maxMissSeconds is how long a track survives without a matching
// detection before termination.
const maxMissSeconds = 0.8

func maxMisses(fps, gap int) int {
	n := int(maxMissSeconds * float64(fps) / float64(gap))
	if n < 2 {
		n = 2
	}
	return n
}

// QueryTracks converts pipeline tracks into the query engine's stored-track
// form, applying endpoint refinement when the configuration requests it and
// the dataset's camera is fixed. clipLen is the source clip's frame count.
//
// Refinement repairs *sampling* truncation: at gap g the first detection
// can be up to g-1 frames after the object entered the scene. A track
// whose first (last) detection sits at the clip's temporal boundary was
// truncated by the clip itself, not by sampling, and extending it would
// count an object that never completed its movement within the clip — so
// those endpoints are left alone.
func (s *System) QueryTracks(cfg Config, tracks []*track.Track, clipLen int) []*query.Track {
	out := StoredTracks(tracks)
	if !cfg.Refine || s.Refiner == nil || !s.DS.FixedCamera {
		return out
	}
	lastProcessed := 0
	if clipLen > 0 {
		lastProcessed = ((clipLen - 1) / cfg.Gap) * cfg.Gap
	}
	for i, t := range tracks {
		qt := out[i]
		if len(qt.Path) < 2 {
			continue
		}
		if start, end, ok := s.Refiner.RefineEndpoints(qt.Path); ok {
			// Refinement extends tracks toward where the object
			// entered and left the scene (Figure 4); it must never
			// retract an endpoint the tracker already observed.
			if t.FirstFrame() >= cfg.Gap && extendsBackward(qt.Path, start) {
				qt.Path = append(geom.Path{start}, qt.Path...)
			}
			if t.LastFrame() <= lastProcessed-cfg.Gap && extendsForward(qt.Path, end) {
				qt.Path = append(qt.Path, end)
			}
		}
	}
	return out
}

// StoredTracks converts pipeline tracks into the query engine's stored-track
// form: the track's detections (shared, not copied) plus the path through
// their centers.
func StoredTracks(tracks []*track.Track) []*query.Track {
	out := make([]*query.Track, len(tracks))
	for i, t := range tracks {
		out[i] = &query.Track{ID: t.ID, Category: t.Category, Dets: t.Dets, Path: t.Path()}
	}
	return out
}

// extendsBackward reports whether p lies beyond the path's first point,
// opposite the direction of travel.
func extendsBackward(path geom.Path, p geom.Point) bool {
	dir := path[1].Sub(path[0])
	toP := p.Sub(path[0])
	return dir.X*toP.X+dir.Y*toP.Y < 0
}

// extendsForward reports whether p lies beyond the path's last point,
// along the direction of travel.
func extendsForward(path geom.Path, p geom.Point) bool {
	n := len(path)
	dir := path[n-1].Sub(path[n-2])
	toP := p.Sub(path[n-1])
	return dir.X*toP.X+dir.Y*toP.Y > 0
}

// SetResult is the outcome of executing a configuration over a clip set.
type SetResult struct {
	PerClip [][]*query.Track
	// Runtime is the simulated execution time in seconds over the set.
	Runtime float64
	// Breakdown is the per-operation cost split.
	Breakdown map[costmodel.Op]float64
}

// PartialError reports a context-canceled pipeline operation together
// with how far it got. It wraps the context's error, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) work through it.
type PartialError struct {
	// Stage names the canceled operation ("extract" or "tune").
	Stage string
	// Done counts completed units (clips for extraction, iterations for
	// tuning) out of Total.
	Done, Total int
	// Err is the underlying context error.
	Err error
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("otif: %s canceled after %d/%d: %v", e.Stage, e.Done, e.Total, e.Err)
}

// Unwrap exposes the context error for errors.Is/As.
func (e *PartialError) Unwrap() error { return e.Err }

// RunSet executes cfg over the given clips and returns the per-clip query
// tracks plus the simulated runtime.
//
// Clips run on the parallel worker pool, mirroring the paper's concurrent
// per-stream execution (§4 runs 16 streams per GPU). Each clip charges a
// goroutine-local shard accountant; the shards are merged in clip order
// afterwards, so runtimes and breakdowns are bit-for-bit identical at any
// worker count (see DESIGN.md "Parallel execution").
func (s *System) RunSet(cfg Config, clips []*dataset.ClipTruth) *SetResult {
	// context.Background is never canceled, so the error is always nil.
	res, _ := s.RunSetContext(context.Background(), cfg, clips)
	return res
}

// RunSetContext is RunSet with cooperative cancellation at clip
// boundaries; it is RunClips applied to ExtractClip under cfg.
func (s *System) RunSetContext(ctx context.Context, cfg Config, clips []*dataset.ClipTruth) (*SetResult, error) {
	return s.RunClips(ctx, clips, s.Extractor(cfg))
}

// ClipFunc is the per-clip body of a clip-set run: it processes one clip,
// charging acct, and returns the clip's stored tracks. ctx carries the
// clip's span and bounds any decode-ahead producer. The runner calls it
// from parallel workers, one clip per call.
type ClipFunc func(ctx context.Context, clip *video.Clip, acct *costmodel.Accountant) []*query.Track

// Extractor returns ExtractClip under cfg as a per-clip body.
func (s *System) Extractor(cfg Config) ClipFunc {
	return func(ctx context.Context, clip *video.Clip, acct *costmodel.Accountant) []*query.Track {
		return s.ExtractClip(ctx, cfg, clip, acct)
	}
}

// RunClips is the clip-set runner every method's clips go through: it
// runs body over each clip on the parallel worker pool, each clip under
// its own span and charging its own accountant, then merges the
// accountants in clip order. Cancellation is cooperative at clip
// boundaries: once ctx is canceled no new clips start, in-flight clips
// run to completion and the workers drain cleanly. On cancellation it
// returns the partial result (completed clips' tracks at their indices,
// nil elsewhere; Runtime covers completed clips only, merged in clip
// order) together with a *PartialError wrapping ctx.Err().
//
// Each finished clip is reported as an obs.EventClip to the Progress ctx
// carries (obs.WithProgress), from its worker.
//
// A set of fewer clips than workers would leave workers idle, so each
// clip's reader decodes ahead on an equal share of the pool instead
// (video.WithProducers): Workers()/len(clips) producers, never more
// goroutines rendering than workers. A larger set reads with one producer
// a clip.
//
// After the clip-order merge the per-category costs are also charged to
// the process metrics registry ("cost.<op>" float counters) in sorted
// category order, so a registry snapshot bracketing a single run
// reproduces its Runtime bit-for-bit via MetricsSnapshot.CostTotal.
func (s *System) RunClips(ctx context.Context, clips []*dataset.ClipTruth, body ClipFunc) (*SetResult, error) {
	out := &SetResult{PerClip: make([][]*query.Track, len(clips))}
	shards := make([]*costmodel.Accountant, len(clips))
	progress := obs.ProgressFrom(ctx)
	if w := parallel.Workers(); len(clips) > 0 && len(clips) < w {
		ctx = video.WithProducers(ctx, w/len(clips))
	}
	ctx, setSpan := obs.StartSpan(ctx, "run.set")
	setSpan.SetStage("extract")
	defer setSpan.End()
	err := parallel.ForContext(ctx, len(clips), func(i int) {
		clipCtx, clipSpan := obs.StartSpan(ctx, "run.clip")
		clipSpan.SetClip(i).SetStage("extract")
		defer clipSpan.End()
		acct := costmodel.NewAccountant()
		out.PerClip[i] = body(clipCtx, clips[i].Clip, acct)
		shards[i] = acct
		progress.Emit(obs.Event{
			Kind: obs.EventClip, Index: i, Total: len(clips), Runtime: acct.Total(),
		})
	})
	done := 0
	acct := costmodel.NewAccountant()
	for _, shard := range shards {
		if shard == nil {
			continue
		}
		done++
		acct.Merge(shard)
	}
	out.Runtime = acct.Total()
	out.Breakdown = acct.Breakdown()
	recordCosts(out.Breakdown)
	setSpan.SetErr(err != nil)
	// Boundary-level structured logging: one line per run, only when a
	// logger is installed (the nil default keeps deterministic benchmarks
	// and the hot path quiet and allocation-free).
	if l := obs.Log(); l != nil {
		l.Info("otif: run set finished",
			"clips", done, "total", len(clips), "runtime", out.Runtime, "canceled", err != nil)
	}
	if err != nil {
		return out, &PartialError{Stage: "extract", Done: done, Total: len(clips), Err: err}
	}
	return out, nil
}

// recordCosts charges a run's per-category simulated costs to the
// process metrics registry. Categories are added in sorted order on the
// calling goroutine — the same fold order Accountant.Total uses — so the
// registry's per-stage totals for a single run are bit-identical at any
// worker count.
func recordCosts(breakdown map[costmodel.Op]float64) {
	if len(breakdown) == 0 {
		return
	}
	keys := make([]string, 0, len(breakdown))
	for k := range breakdown {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	for _, k := range keys {
		obs.Default.Cost("cost." + k).Add(breakdown[costmodel.Op(k)])
	}
}

// Ctx returns the query context for this dataset's clips.
func (s *System) Ctx() query.Context {
	frames := 0
	if len(s.DS.Test) > 0 {
		frames = s.DS.Test[0].Clip.Len()
	} else if len(s.DS.Val) > 0 {
		frames = s.DS.Val[0].Clip.Len()
	}
	return query.Context{
		FPS:  s.DS.Cfg.FPS,
		NomW: s.DS.Cfg.NomW,
		NomH: s.DS.Cfg.NomH,
		// Frames is per clip; all clips in a set share a length.
		Frames: frames,
	}
}
