package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"otif"
	"otif/internal/obs"
	"otif/internal/query"
	"otif/internal/store"
)

// Config is otifd's configuration: one field per flag that describes the
// daemon rather than the process (address, logging and tracing stay in
// main). A stream is started by submitting a stream job, not configured.
type Config struct {
	Dataset string  // -dataset
	Clips   int     // -clips (0 = default)
	Seconds float64 // -seconds (0 = default)
	Seed    int64   // -seed

	SegmentsDir string // -segments-dir: segment files to serve at start-up

	// Flags reports every effective flag value for the debug bundle's
	// config.json; nil omits that member.
	Flags func() map[string]string
}

// Daemon is otifd's state: the pipeline behind the tune, extract and
// stream jobs, and the dataset registry /v1/query/* answers from.
//
// One rule decides which tracks answer the default dataset: the last
// publication. A source publishes by replacing the dataset's registry
// entry, in the order things happen — the -segments-dir track set of that
// dataset's name at start-up; every finished extract job; a stream job's
// live store when its first clip lands. The live store keeps growing
// behind its entry and stays registered after the session ends, until
// something else publishes.
type Daemon struct {
	cfg      Config
	datasets *store.Registry
	jobs     *Manager
	srv      *Server

	// pipe is nil until Start has trained and tuned: jobs fail and
	// /readyz answers 503 until then.
	pipe atomic.Pointer[otif.Pipeline]
	// mu serializes tune and extract (they share trained state) and
	// guards curve; relay routes the pipeline's progress events to the
	// job holding mu.
	mu    sync.Mutex
	curve []otif.Point
	relay atomic.Pointer[obs.Progress]

	// session is the running stream job's ingest session, for /v1/streams
	// only; streaming admits one stream job at a time.
	session   atomic.Pointer[otif.IngestSession]
	streaming atomic.Bool
}

// NewDaemon loads the start-up sources named by cfg and wires the job
// runners and the HTTP surface. The pipeline is not touched until Start.
func NewDaemon(cfg Config) (*Daemon, error) {
	d := &Daemon{cfg: cfg, datasets: store.NewRegistry(), jobs: NewManager()}
	// Registered first, so the daemon's own dataset is the registry default;
	// an empty track set resolves to "not loaded" until something publishes.
	d.publish(&otif.TrackSet{})
	if cfg.SegmentsDir != "" {
		// Segment files are self-describing, so they serve queries with no
		// geometry arguments, and before the pipeline has trained. Each set
		// registers under the dataset name in its headers.
		sets, err := otif.LoadTrackSets(cfg.SegmentsDir)
		if err != nil {
			return nil, err
		}
		for name, ts := range sets {
			d.datasets.Register(name, ts)
			logInfo("otifd: segments loaded", "dataset", name, "clips", ts.Clips())
		}
	}
	d.jobs.Register("tune", d.runTune)
	d.jobs.Register("extract", d.runExtract)
	d.jobs.Register("stream", d.runStream)
	d.srv = &Server{
		Manager: d.jobs,
		Ready:   func() bool { return d.pipe.Load() != nil },
		Queries: &QueryAPI{Datasets: d.datasets, Movements: d.movements},
		Streams: d.streams,
		Config:  cfg.Flags,
	}
	return d, nil
}

// Handler returns the daemon's HTTP surface (see Server).
func (d *Daemon) Handler() http.Handler { return d.srv.Handler() }

// Start trains and tunes the pipeline and flips /readyz. It blocks until
// then; /healthz, the debug endpoints and queries over start-up sources
// answer meanwhile.
func (d *Daemon) Start(ctx context.Context) error {
	start := time.Now()
	pipe, err := otif.Open(d.cfg.Dataset, otif.Options{
		ClipsPerSet: d.cfg.Clips, ClipSeconds: d.cfg.Seconds, Seed: d.cfg.Seed,
		Progress: d.relayProgress,
	})
	if err != nil {
		return err
	}
	pipe.Train()
	curve, err := pipe.Tune(ctx)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.curve = curve
	d.mu.Unlock()
	d.pipe.Store(pipe)
	logInfo("otifd: ready", "dataset", d.cfg.Dataset, "startup", time.Since(start).Round(time.Millisecond).String())
	return nil
}

// Close cancels every running job and waits for their goroutines.
func (d *Daemon) Close() { d.jobs.Close() }

// Run serves a daemon built from cfg on ln. It returns nil after ctx is
// done and running jobs and open connections have drained, or the error
// that stopped it: a start-up source that does not load, a pipeline that
// cannot start, a failed listener.
func Run(ctx context.Context, ln net.Listener, cfg Config) error {
	d, err := NewDaemon(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	defer d.Close()
	// A client that stalls sending its request, or holds an idle connection,
	// is dropped; responses (SSE, profiles) may take as long as they need.
	httpSrv := &http.Server{
		Handler:           d.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	defer httpSrv.Close()
	failed := make(chan error, 2) // one send per goroutine below
	go func() { failed <- httpSrv.Serve(ln) }()
	// Training cannot be interrupted; on shutdown the process exits under it.
	go func() {
		if err := d.Start(ctx); err != nil {
			failed <- err
		}
	}()
	select {
	case err := <-failed:
		if ctx.Err() == nil {
			return err
		}
	case <-ctx.Done():
	}
	logInfo("otifd: shutting down")
	d.Close() // jobs first: an event stream ends with its job, so Shutdown is not left waiting on it
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Connections still open after the grace period are cut by the deferred Close.
	_ = httpSrv.Shutdown(shutdownCtx)
	return nil
}

func logInfo(msg string, args ...any) {
	if l := obs.Log(); l != nil {
		l.Info(msg, args...)
	}
}

// publish makes p the answer to queries over the daemon's own dataset.
func (d *Daemon) publish(p store.Provider) { d.datasets.Register(d.cfg.Dataset, p) }

// streams reports the running stream job's stats for GET /v1/streams.
func (d *Daemon) streams() (otif.IngestStats, bool) {
	if s := d.session.Load(); s != nil {
		return s.Stats(), true
	}
	return otif.IngestStats{}, false
}

// movements are the dataset's labeled movements for /v1/query/breakdown,
// known once the pipeline is up (segment files carry none).
func (d *Daemon) movements() []query.Movement {
	if p := d.pipe.Load(); p != nil {
		return p.Movements()
	}
	return nil
}

func (d *Daemon) relayProgress(e obs.Event) {
	if p := d.relay.Load(); p != nil {
		(*p)(e)
	}
}

var errNotReady = errors.New("otifd: pipeline not ready (training or tuning still running)")

// acquire locks the pipeline for one tune or extract job and routes its
// progress events to that job.
func (d *Daemon) acquire(progress obs.Progress) (pipe *otif.Pipeline, release func(), err error) {
	if pipe = d.pipe.Load(); pipe == nil {
		return nil, nil, errNotReady
	}
	d.mu.Lock()
	d.relay.Store(&progress)
	return pipe, func() {
		d.relay.Store(nil)
		d.mu.Unlock()
	}, nil
}

// runTune re-runs the greedy joint tuner and replaces the speed-accuracy
// curve extract jobs pick from. It takes no parameters.
func (d *Daemon) runTune(ctx context.Context, job *Job, progress obs.Progress) (any, error) {
	if err := paramsOf(job).check(); err != nil {
		return nil, err
	}
	pipe, release, err := d.acquire(progress)
	if err != nil {
		return nil, err
	}
	defer release()
	curve, err := pipe.Tune(ctx)
	if err != nil {
		return nil, err
	}
	d.curve = curve
	return map[string]any{"points": len(curve)}, nil
}

// runExtract extracts one clip set under the configuration picked from
// the current curve and publishes the tracks. Params: "set" (train, val or
// test; default test) and "tolerance" (accuracy tolerance for the pick,
// 0 to 1, default 0.05).
func (d *Daemon) runExtract(ctx context.Context, job *Job, progress obs.Progress) (any, error) {
	p := paramsOf(job)
	set := otif.Test
	if s, ok := p.get("set"); ok {
		set = otif.SetName(s)
	}
	tol := num(p, "tolerance", 0.05, 0, 1, parseFloat)
	if err := p.check(); err != nil {
		return nil, err
	}
	pipe, release, err := d.acquire(progress)
	if err != nil {
		return nil, err
	}
	defer release()
	pick, err := otif.PickFastestWithin(d.curve, tol)
	if err != nil {
		return nil, err
	}
	ts, err := pipe.Extract(ctx, pick.Cfg, set)
	if err != nil {
		return nil, err
	}
	acc, err := pipe.Accuracy(ts, set)
	if err != nil {
		return nil, err
	}
	d.publish(ts)
	return map[string]any{
		"set":      string(set),
		"config":   fmt.Sprintf("%v", pick.Cfg),
		"clips":    ts.Clips(),
		"runtime":  ts.Runtime,
		"accuracy": acc,
	}, nil
}

// runStream runs one streaming ingest session until its cameras are
// exhausted or the job is canceled. It does not hold mu: ingest only reads
// trained state, so tune and extract jobs run beside it. One progress event
// per published clip flows to the job's event stream; the first publishes
// the session's live store. Params: "cameras" (1 to 64, default 1),
// "clips" (per camera, 0 = unbounded), "interval" (Go duration, 0 or
// more), "queue" (depth 0 to 1024, 0 = default), "drop" (a bool: shed clips
// when the queue is full), "seconds" (clip duration up to 600, 0 = dataset
// default).
func (d *Daemon) runStream(ctx context.Context, job *Job, progress obs.Progress) (any, error) {
	p := paramsOf(job)
	opts := otif.IngestOptions{
		Cameras:        num(p, "cameras", 1, 1, maxStreamCameras, strconv.Atoi),
		ClipsPerCamera: num(p, "clips", 0, 0, math.MaxInt, strconv.Atoi),
		Interval:       num(p, "interval", 0, 0, math.MaxInt64, time.ParseDuration),
		ClipSeconds:    num(p, "seconds", 0, 0, maxClipSeconds, parseFloat),
		QueueDepth:     num(p, "queue", 0, 0, maxStreamQueue, strconv.Atoi),
		DropWhenFull:   p.bool("drop"),
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	pipe := d.pipe.Load()
	if pipe == nil {
		return nil, errNotReady
	}
	if !d.streaming.CompareAndSwap(false, true) {
		return nil, errors.New("otifd: a stream job is already running")
	}
	defer d.streaming.Store(false)

	first := make(chan struct{})
	var once sync.Once
	opts.Progress = func(e obs.Event) {
		progress(e)
		once.Do(func() { close(first) })
	}
	sess, err := pipe.Ingest(ctx, opts)
	if err != nil {
		return nil, err
	}
	d.session.Store(sess)
	defer d.session.Store(nil)
	// An empty live store must not hide the tracks already published, so
	// it takes the dataset's entry only once it has a clip.
	select {
	case <-first:
	case <-sess.Done():
	}
	if sess.Live().Clips() > 0 {
		d.publish(sess.Live())
	}
	waitErr := sess.Wait()
	if waitErr != nil && !errors.Is(waitErr, context.Canceled) {
		return nil, waitErr
	}
	st := sess.Stats()
	return map[string]any{
		"clips":   st.ClipsIngested,
		"dropped": st.ClipsDropped,
		"runtime": st.Runtime,
	}, nil
}
