package otif

import (
	"context"
	"fmt"
	"time"

	"otif/internal/ingest"
	"otif/internal/obs"
	"otif/internal/query"
	"otif/internal/store"
	"otif/internal/video"
)

// IngestStats is a consistent point-in-time snapshot of a streaming ingest
// session — the typed counterpart of scraping the metrics registry, as
// CacheStats is for the frame cache.
type IngestStats = ingest.Stats

// CameraIngestStats is one camera's slice of IngestStats.
type CameraIngestStats = ingest.CameraStats

// PublishedClip records one streamed clip's publication: which (camera,
// clip) pair landed at which index of the live store.
type PublishedClip = ingest.PublishedClip

// ingestConfig collects the functional options accepted by Ingest.
type ingestConfig struct {
	cameras  int
	limit    int
	interval time.Duration
	seconds  float64
	depth    int
	drop     bool
	cfg      *Config
	progress obs.Progress
}

// IngestOption configures Pipeline.Ingest.
type IngestOption interface {
	applyIngest(*ingestConfig)
}

// ingestOption adapts a plain function to IngestOption.
type ingestOption func(*ingestConfig)

func (f ingestOption) applyIngest(c *ingestConfig) { f(c) }

// WithCameras sets how many simulated camera streams the session ingests
// (default 1). Each camera is an independent deterministic feed over the
// pipeline's scene, seeded disjointly from the train/val/test sets.
func WithCameras(n int) IngestOption {
	return ingestOption(func(c *ingestConfig) { c.cameras = n })
}

// WithCameraClips bounds how many clips each camera emits; the session
// finishes naturally once every camera is exhausted and drained. The
// default (0) streams until the context is canceled or Close is called.
func WithCameraClips(n int) IngestOption {
	return ingestOption(func(c *ingestConfig) { c.limit = n })
}

// WithStreamInterval paces each camera's clip emissions on a wall-clock
// schedule. The default (0) emits on demand, as fast as queue backpressure
// allows.
func WithStreamInterval(d time.Duration) IngestOption {
	return ingestOption(func(c *ingestConfig) { c.interval = d })
}

// WithStreamClipSeconds sets the duration of each streamed clip; the
// default (0) uses the pipeline's sampled-set clip duration.
func WithStreamClipSeconds(s float64) IngestOption {
	return ingestOption(func(c *ingestConfig) { c.seconds = s })
}

// WithQueueDepth bounds the shared extraction queue; 0 selects twice the
// worker count. A full queue blocks producers (backpressure) unless
// WithDropWhenFull is set.
func WithQueueDepth(n int) IngestOption {
	return ingestOption(func(c *ingestConfig) { c.depth = n })
}

// WithDropWhenFull sheds clips instead of blocking producers when the
// extraction queue is full; dropped clips are counted in IngestStats.
func WithDropWhenFull(drop bool) IngestOption {
	return ingestOption(func(c *ingestConfig) { c.drop = drop })
}

// WithStreamConfig sets the pipeline configuration streamed clips run
// under, typically a point picked from the tuned speed-accuracy curve. The
// default is the best-accuracy configuration selected by Train.
func WithStreamConfig(cfg Config) IngestOption {
	return ingestOption(func(c *ingestConfig) { c.cfg = &cfg })
}

// WithStreamProgress attaches a progress callback receiving one
// EventIngestClip per published clip, overriding the pipeline's callback
// from WithProgress. Events arrive concurrently from clip workers.
func WithStreamProgress(fn ProgressFunc) IngestOption {
	return ingestOption(func(c *ingestConfig) { c.progress = fn })
}

// IngestSession is one running streaming ingest over a pipeline's trained
// models: N simulated cameras feeding a bounded extraction queue whose
// results publish incrementally to a live indexed store. Create with
// Pipeline.Ingest; stop with Close or by canceling the start context.
type IngestSession struct {
	s    *ingest.Session
	name string
}

// Ingest starts a streaming ingest session: per-camera sources emit
// fixed-length clips into a bounded shared queue, extraction workers run
// them through the trained pipeline, and every extracted clip appends
// atomically to a live indexed store that Store snapshots at any moment.
// It returns ErrNotTrained before Train (or LoadModels).
//
// Each (camera, clip) pair's extracted tracks are bit-identical to running
// that clip through Extract's batch path; only the publication order
// depends on worker timing.
func (p *Pipeline) Ingest(ctx context.Context, options ...IngestOption) (*IngestSession, error) {
	c := ingestConfig{cameras: 1}
	for _, o := range options {
		o.applyIngest(&c)
	}
	if p.sys.Recurrent == nil {
		return nil, ErrNotTrained
	}
	if c.cameras < 1 {
		c.cameras = 1
	}
	cfg := p.sys.Best
	if c.cfg != nil {
		cfg = *c.cfg
	}
	progress := c.progress
	if progress == nil {
		progress = p.progress
	}

	cams := make([]ingest.Camera, c.cameras)
	for i := 0; i < c.cameras; i++ {
		gen := p.sys.DS.Camera(i, c.seconds)
		cams[i] = ingest.Camera{
			Name:     fmt.Sprintf("%s-cam%d", p.sys.DS.Name, i),
			Clip:     func(j int) *video.Clip { return gen(j).Clip },
			Limit:    c.limit,
			Interval: c.interval,
		}
	}
	// Streamed clips may be longer or shorter than the sampled sets', so
	// derive the store's per-clip frame count from an actual camera clip
	// (camera feeds are deterministic; probing clip 0 is free of side
	// effects).
	qctx := p.sys.Ctx()
	qctx.Frames = p.sys.DS.Camera(0, c.seconds)(0).Clip.Len()

	s, err := ingest.Start(ctx, p.sys, ingest.Options{
		Cameras:      cams,
		Cfg:          cfg,
		QueueDepth:   c.depth,
		DropWhenFull: c.drop,
		Ctx:          qctx,
		Progress:     progress,
	})
	if err != nil {
		return nil, err
	}
	return &IngestSession{s: s, name: p.sys.DS.Name}, nil
}

// Store returns the current published snapshot of the live track store: a
// segmented store whose sealed segments are shared across snapshots plus
// one open tail segment. The snapshot is immutable and safe for concurrent
// queries while ingest continues; call Store again to observe newly
// published clips.
func (s *IngestSession) Store() store.Querier { return s.s.Store() }

// Stats snapshots the session's counters: clips ingested and dropped,
// current queue depth, and per-camera lag.
func (s *IngestSession) Stats() IngestStats { return s.s.Stats() }

// Published returns a copy of the publication log, mapping each live-store
// clip index back to its (camera, clip) origin.
func (s *IngestSession) Published() []PublishedClip { return s.s.Published() }

// Tracks materializes the session's published clips as a TrackSet, with
// the live store's already-built index adopted as the set's query index.
// The TrackSet is a snapshot: clips published after the call do not appear
// in it.
func (s *IngestSession) Tracks() *TrackSet {
	snap := s.s.Store()
	per := make([][]*query.Track, snap.Clips())
	for i := range per {
		per[i] = snap.Tracks(i)
	}
	ts := &TrackSet{
		PerClip: per,
		Runtime: s.s.Stats().Runtime,
		Dataset: s.name,
		ctx:     snap.Context(),
	}
	ts.idxOnce.Do(func() { ts.idx = snap })
	return ts
}

// Done returns a channel closed when the session has fully stopped.
func (s *IngestSession) Done() <-chan struct{} { return s.s.Done() }

// Wait blocks until the session stops: every bounded camera exhausted and
// drained (nil), or the start context canceled (its error). Published
// clips remain queryable either way.
func (s *IngestSession) Wait() error { return s.s.Wait() }

// Close cancels the session and waits for workers to drain. Clips in
// flight finish and publish; queued clips are abandoned. Close is
// idempotent.
func (s *IngestSession) Close() error { return s.s.Close() }
