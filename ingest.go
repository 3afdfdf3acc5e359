package otif

import (
	"context"
	"fmt"
	"time"

	"otif/internal/ingest"
	"otif/internal/obs"
	"otif/internal/video"
)

// IngestStats is a consistent point-in-time snapshot of a streaming ingest
// session — the typed counterpart of scraping the metrics registry.
type IngestStats = ingest.Stats

// PublishedClip records one streamed clip's publication: which (camera,
// clip) pair landed at which index of the live store.
type PublishedClip = ingest.PublishedClip

// IngestOptions configures Pipeline.Ingest; the zero value is one camera
// streaming the pipeline's clip length on demand until canceled.
type IngestOptions struct {
	// Cameras is how many simulated camera streams the session ingests
	// (values below 1 mean 1). Each camera is an independent deterministic
	// feed over the pipeline's scene, seeded disjointly from the
	// train/val/test sets.
	Cameras int
	// ClipsPerCamera bounds how many clips each camera emits; the session
	// finishes naturally once every camera is exhausted and drained. Zero
	// streams until the context is canceled or Close is called.
	ClipsPerCamera int
	// Interval paces each camera's clip emissions on a wall-clock
	// schedule. Zero emits on demand, as fast as queue backpressure allows.
	Interval time.Duration
	// ClipSeconds is the duration of each streamed clip; zero uses the
	// pipeline's sampled-set clip duration.
	ClipSeconds float64
	// QueueDepth bounds the shared extraction queue; zero selects twice
	// the worker count. A full queue blocks producers (backpressure) unless
	// DropWhenFull is set.
	QueueDepth int
	// DropWhenFull sheds clips instead of blocking producers when the
	// extraction queue is full; dropped clips are counted in IngestStats.
	DropWhenFull bool
}

// IngestSession is one running streaming ingest over a pipeline's trained
// models: N simulated cameras feeding a bounded extraction queue whose
// results publish incrementally to a live indexed store. Create with
// Pipeline.Ingest; stop with Close or by canceling the start context.
type IngestSession struct {
	*ingest.Session
}

// Ingest starts a streaming ingest session: per-camera sources emit
// fixed-length clips into a bounded shared queue, extraction workers run
// them through the trained pipeline, and every extracted clip appends
// atomically to a live indexed store that Tracks snapshots at any moment.
// It returns ErrNotTrained before Train (or LoadModels). The ProgressFunc
// in ctx (WithProgress) receives one EventIngestClip per published clip,
// concurrently from clip workers.
//
// Each (camera, clip) pair's extracted tracks are bit-identical to running
// that clip through Extract's batch path; only the publication order
// depends on worker timing.
func (p *Pipeline) Ingest(ctx context.Context, o IngestOptions) (*IngestSession, error) {
	if p.sys.Recurrent == nil {
		return nil, ErrNotTrained
	}
	if o.Cameras < 1 {
		o.Cameras = 1
	}

	cams := make([]ingest.Camera, o.Cameras)
	for i := range cams {
		gen := p.sys.DS.Camera(i, o.ClipSeconds)
		cams[i] = ingest.Camera{
			Name:     fmt.Sprintf("%s-cam%d", p.sys.DS.Name, i),
			Clip:     func(j int) *video.Clip { return gen(j).Clip },
			Limit:    o.ClipsPerCamera,
			Interval: o.Interval,
		}
	}
	// Streamed clips may be longer or shorter than the sampled sets', so
	// derive the store's per-clip frame count from an actual camera clip
	// (camera feeds are deterministic; probing clip 0 is free of side
	// effects).
	qctx := p.sys.Ctx()
	qctx.Frames = p.sys.DS.Camera(0, o.ClipSeconds)(0).Clip.Len()

	s, err := ingest.Start(ctx, p.sys, ingest.Options{
		Cameras:      cams,
		Cfg:          p.sys.Best,
		QueueDepth:   o.QueueDepth,
		DropWhenFull: o.DropWhenFull,
		Ctx:          qctx,
		Progress:     obs.ProgressFrom(ctx),
	})
	if err != nil {
		return nil, err
	}
	return &IngestSession{Session: s}, nil
}

// Tracks returns the session's published clips as a TrackSet over the
// live store's current snapshot: clips published after the call do not
// appear in it.
func (s *IngestSession) Tracks() *TrackSet {
	return &TrackSet{Querier: s.Live().Snapshot(), Runtime: s.Stats().Runtime}
}
