// Package ingest is OTIF's streaming pre-processing path: per-camera
// stream sources feeding a bounded shared work queue drained by the
// parallel pool against one shared model set, with every extracted clip
// appended incrementally to a live indexed store.
//
// The batch pipeline (core.RunSet) consumes a fixed clip list and
// publishes one track set at the end; a Session instead watches N
// cameras forever. Each camera runs a producer goroutine that
// synthesizes (decodes) its next fixed-length clip while earlier clips
// are still being extracted — clip-level decode-ahead on top of the
// frame-level prefetch the clip reader already does — and enqueues it on
// the shared queue. The queue is bounded: when extraction falls behind,
// producers block (backpressure) or, when the drop policy is enabled,
// shed the clip and count it. Worker goroutines (parallel.Drain, one
// shared trained model set, the same pooled per-clip execution RunSet
// uses) extract tracks and publish them to a store.Live, whose atomic
// per-clip snapshot swap guarantees queries concurrent with ingest never
// observe a torn index.
//
// Determinism: the stream's publication ORDER depends on worker timing,
// but each (camera, clip) pair's extracted tracks are bit-identical to
// running that clip through the batch pipeline — every clip is charged to
// its own accountant, exactly like RunSet's per-clip shards.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/obs"
	"otif/internal/parallel"
	"otif/internal/query"
	"otif/internal/store"
	"otif/internal/video"
)

// Process-wide ingest counters. Per-session state (queue depth, lag) is
// exported through the gauge group below, which follows the most recently
// started session.
var (
	metClipsIn      = obs.Default.Counter("ingest.clips_in")
	metClipsOut     = obs.Default.Counter("ingest.clips_published")
	metClipsDropped = obs.Default.Counter("ingest.clips_dropped")
)

// activeSession is the session the ingest gauges describe: the most
// recently started one (a daemon runs at most one). Cleared when that
// session ends.
var activeSession atomic.Pointer[Session]

func init() {
	obs.Default.GaugeGroup(func() map[string]float64 {
		s := activeSession.Load()
		if s == nil {
			return nil
		}
		st := s.Stats()
		m := map[string]float64{
			"ingest.queue_depth": float64(st.QueueDepth),
			"ingest.cameras":     float64(len(st.Cameras)),
		}
		for i, c := range st.Cameras {
			p := fmt.Sprintf("ingest.cam%d.", i)
			m[p+"lag"] = float64(c.Lag)
			m[p+"published"] = float64(c.ClipsPublished)
			m[p+"dropped"] = float64(c.ClipsDropped)
		}
		return m
	})
}

// Camera describes one stream source: a deterministic generator of
// fixed-length clips plus its pacing policy.
type Camera struct {
	// Name identifies the camera in stats, progress events and gauges.
	Name string
	// Clip returns the camera's i-th clip. It is called from the camera's
	// producer goroutine only, in order, each index exactly once.
	Clip func(i int) *video.Clip
	// Limit bounds how many clips the camera emits; 0 streams forever.
	Limit int
	// Interval is the wall-clock schedule between clip emissions; 0 emits
	// on demand, as fast as queue backpressure allows.
	Interval time.Duration
}

// Options configures a Session.
type Options struct {
	// Cameras are the stream sources; at least one is required.
	Cameras []Camera
	// Cfg is the pipeline configuration every streamed clip runs under.
	Cfg core.Config
	// QueueDepth bounds the shared work queue; 0 selects twice the worker
	// count.
	QueueDepth int
	// DropWhenFull sheds clips instead of blocking the producer when the
	// queue is full. The default (false) applies backpressure: a camera
	// that outpaces extraction waits.
	DropWhenFull bool
	// Ctx overrides the clip geometry the live store is built with; the
	// zero value derives it from the system's dataset. Set it when the
	// streamed clips' length differs from the dataset's sampled sets.
	Ctx query.Context
	// Progress, when non-nil, receives one EventIngestClip per published
	// clip. Events arrive concurrently from workers.
	Progress obs.Progress
}

// CameraStats is one camera's view of Stats.
type CameraStats struct {
	Name string `json:"name"`
	// ClipsEmitted counts clips the camera has synthesized so far.
	ClipsEmitted int64 `json:"clips_emitted"`
	// ClipsPublished counts the camera's clips that have landed in the
	// live store.
	ClipsPublished int64 `json:"clips_published"`
	// ClipsDropped counts clips shed under the drop policy.
	ClipsDropped int64 `json:"clips_dropped"`
	// Lag is ClipsEmitted - ClipsPublished - ClipsDropped: clips queued or
	// in flight between the camera and the store.
	Lag int64 `json:"lag"`
}

// Stats is a consistent point-in-time snapshot of a session, the typed
// counterpart of scraping the obs registry.
type Stats struct {
	// ClipsIngested counts clips published to the live store.
	ClipsIngested int64 `json:"clips_ingested"`
	// ClipsDropped counts clips shed across all cameras.
	ClipsDropped int64 `json:"clips_dropped"`
	// QueueDepth is the number of clips currently waiting in the shared
	// queue.
	QueueDepth int `json:"queue_depth"`
	// Runtime is the total simulated extraction cost over published clips.
	Runtime float64 `json:"runtime"`
	// Cameras holds per-camera counters in Options.Cameras order.
	Cameras []CameraStats `json:"cameras"`
}

// PublishedClip records one clip's publication for callers that need the
// store-index → (camera, clip) correspondence.
type PublishedClip struct {
	// Camera indexes Options.Cameras; CamClip is the clip's index within
	// that camera's stream; StoreClip its index in the live store.
	Camera, CamClip, StoreClip int
	// Runtime is the clip's simulated extraction cost.
	Runtime float64
	// Tracks counts the clip's extracted tracks.
	Tracks int
}

// workItem is one clip in flight from a producer to the worker pool.
type workItem struct {
	cam, idx int
	clip     *video.Clip
}

// camState holds one camera's atomic counters.
type camState struct {
	name                        string
	emitted, published, dropped atomic.Int64
}

// Session is one running ingest: producers, queue, workers and the live
// store. Create with Start; stop with Close or by canceling the start
// context.
type Session struct {
	sys *core.System
	cfg core.Config

	ctx    context.Context
	cancel context.CancelFunc
	queue  chan workItem
	drop   bool

	live     *store.Live
	cams     []*camState
	progress obs.Progress

	mu      sync.Mutex // guards runtime and log
	runtime float64
	log     []PublishedClip

	done      chan struct{}
	err       error
	closeOnce sync.Once
}

// Start launches an ingest session over the system's trained models. It
// returns once producers and workers are running; the session then runs
// until every bounded camera is exhausted and drained, or until ctx is
// canceled / Close is called.
func Start(ctx context.Context, sys *core.System, opts Options) (*Session, error) {
	if len(opts.Cameras) == 0 {
		return nil, errors.New("ingest: no cameras")
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 2 * parallel.Workers()
	}
	qctx := opts.Ctx
	if qctx == (query.Context{}) {
		qctx = sys.Ctx()
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Session{
		sys:      sys,
		cfg:      opts.Cfg,
		ctx:      sctx,
		cancel:   cancel,
		queue:    make(chan workItem, depth),
		drop:     opts.DropWhenFull,
		live:     store.NewLive(qctx),
		cams:     make([]*camState, len(opts.Cameras)),
		progress: opts.Progress,
		done:     make(chan struct{}),
	}
	for i, cam := range opts.Cameras {
		name := cam.Name
		if name == "" {
			name = fmt.Sprintf("cam%d", i)
		}
		s.cams[i] = &camState{name: name}
	}

	var producers sync.WaitGroup
	producers.Add(len(opts.Cameras))
	for i, cam := range opts.Cameras {
		go s.produce(&producers, i, cam)
	}
	// Close the queue once every producer is done, so Drain's workers
	// finish the tail and exit.
	go func() {
		producers.Wait()
		close(s.queue)
	}()
	go func() {
		err := parallel.Drain(s.ctx, s.queue, s.work)
		s.err = err
		activeSession.CompareAndSwap(s, nil)
		close(s.done)
	}()
	activeSession.Store(s)
	return s, nil
}

// produce runs one camera: synthesize the next clip, then enqueue it —
// blocking under backpressure, or shedding it under the drop policy.
func (s *Session) produce(wg *sync.WaitGroup, ci int, cam Camera) {
	defer wg.Done()
	st := s.cams[ci]
	for i := 0; cam.Limit <= 0 || i < cam.Limit; i++ {
		if s.ctx.Err() != nil {
			return
		}
		if cam.Interval > 0 && i > 0 {
			select {
			case <-time.After(cam.Interval):
			case <-s.ctx.Done():
				return
			}
		}
		clip := cam.Clip(i)
		st.emitted.Add(1)
		metClipsIn.Inc()
		it := workItem{cam: ci, idx: i, clip: clip}
		if s.drop {
			select {
			case s.queue <- it:
			default:
				st.dropped.Add(1)
				metClipsDropped.Inc()
			}
			continue
		}
		select {
		case s.queue <- it:
		case <-s.ctx.Done():
			return
		}
	}
}

// work extracts one queued clip and publishes its tracks. It runs on the
// parallel pool's workers; a clip in flight when the session is canceled
// completes and publishes, mirroring RunSetContext's clip-boundary
// cancellation.
func (s *Session) work(it workItem) {
	clipCtx, span := obs.StartSpan(s.ctx, "ingest.clip")
	span.SetStage("ingest").SetCamera(s.cams[it.cam].name).SetClip(it.idx)
	defer span.End()
	acct := costmodel.NewAccountant()
	tracks := s.sys.ExtractClip(clipCtx, s.cfg, it.clip, acct)
	rt := acct.Total()

	idx := s.live.Append(tracks)
	s.mu.Lock()
	s.runtime += rt
	s.log = append(s.log, PublishedClip{
		Camera: it.cam, CamClip: it.idx, StoreClip: idx,
		Runtime: rt, Tracks: len(tracks),
	})
	s.mu.Unlock()
	s.cams[it.cam].published.Add(1)
	metClipsOut.Inc()
	s.progress.Emit(obs.Event{
		Kind: obs.EventIngestClip, Index: idx,
		Config: s.cams[it.cam].name, Runtime: rt,
	})
	if l := obs.Log(); l != nil {
		l.Debug("otif: ingest clip published",
			"camera", s.cams[it.cam].name, "clip", it.idx, "store_clip", idx, "tracks", len(tracks))
	}
}

// Live returns the session's live store. Its Snapshot is the published
// *store.Sharded (sealed segments plus the open tail), safe for concurrent
// queries while ingest continues and valid after the session ends.
func (s *Session) Live() *store.Live { return s.live }

// Stats snapshots the session's counters.
func (s *Session) Stats() Stats {
	st := Stats{QueueDepth: len(s.queue)}
	s.mu.Lock()
	st.Runtime = s.runtime
	s.mu.Unlock()
	st.Cameras = make([]CameraStats, len(s.cams))
	for i, c := range s.cams {
		cs := CameraStats{
			Name:           c.name,
			ClipsEmitted:   c.emitted.Load(),
			ClipsPublished: c.published.Load(),
			ClipsDropped:   c.dropped.Load(),
		}
		cs.Lag = cs.ClipsEmitted - cs.ClipsPublished - cs.ClipsDropped
		st.Cameras[i] = cs
		st.ClipsIngested += cs.ClipsPublished
		st.ClipsDropped += cs.ClipsDropped
	}
	return st
}

// Published returns a copy of the publication log: which (camera, clip)
// landed at which store index.
func (s *Session) Published() []PublishedClip {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]PublishedClip(nil), s.log...)
}

// Done returns a channel closed when the session has fully stopped (all
// workers exited).
func (s *Session) Done() <-chan struct{} { return s.done }

// Wait blocks until the session stops: every bounded camera exhausted and
// drained, or the context canceled. It returns nil on a natural finish
// and the context's error after cancellation — in both cases every
// published clip remains queryable through Live.
func (s *Session) Wait() error {
	<-s.done
	return s.err
}

// Close cancels the session and waits for workers to drain. Clips already
// in flight finish and publish; queued clips are abandoned. Close is
// idempotent and safe to call concurrently with Wait.
func (s *Session) Close() error {
	s.closeOnce.Do(s.cancel)
	<-s.done
	if s.err != nil && !errors.Is(s.err, context.Canceled) {
		return s.err
	}
	return nil
}
