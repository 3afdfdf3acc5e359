// Command otifd serves the OTIF pipeline as a long-running daemon: it
// trains and tunes one dataset in the background, then exposes the
// standard operational surface over HTTP —
//
//	GET  /metrics               Prometheus text exposition of the registry
//	GET  /healthz               liveness
//	GET  /readyz                readiness (503 until train+tune finish)
//	GET  /jobs                  job records (JSON)
//	POST /jobs                  submit {"kind":"tune"|"extract"|"stream","params":{...}}
//	GET  /jobs/{id}             one job record
//	GET  /jobs/{id}/events      live job progress (SSE)
//	POST /jobs/{id}/cancel      cooperative cancellation
//	GET  /v1/datasets           registered datasets + segment manifests
//	GET  /v1/query/count        indexed track queries over the selected
//	GET  /v1/query/breakdown    dataset (?dataset=, default the daemon's
//	GET  /v1/query/limit        own): counts, path breakdown, frame-level
//	POST /v1/query/dwell        limit queries, dwell times (503 until loaded)
//	GET  /v1/streams            streaming ingest status (JSON)
//	GET  /v1/debug/trace        flight-recorder spans (?format=otif|chrome)
//	GET  /v1/debug/slow         slowest query requests with span subtrees
//	GET  /v1/debug/bundle       one-shot tar.gz post-mortem artifact
//	     /v1/debug/pprof/*      CPU/heap/goroutine profiling
//	     /debug/pprof/*         the same, where go tool pprof expects it
//
// The flight recorder is on by default: a fixed-capacity ring of spans
// (-trace-spans, default 16384) overwrites oldest-first, so the daemon
// always holds its most recent window of activity under bounded memory.
// -trace-out writes the retained spans to a file on graceful shutdown in
// the -trace-format of choice; GET /v1/debug/trace serves the same data
// live, and format=chrome loads directly in Perfetto.
//
// The query endpoints answer from the indexed track store. Tracks come
// from a successful extract job, immediately at startup from a stored
// track file (-tracks, in which case queries work before the pipeline
// finishes training), or incrementally from a running stream job: while
// streaming ingest is active, /v1/query/* answers from the live store's
// latest immutable snapshot, so results grow clip by clip without ever
// exposing a torn index.
//
//	otifd -dataset caldot1                        # default address :8080
//	otifd -addr 127.0.0.1:0 -clips 2 -seconds 2   # tiny instance, random port
//	otifd -tracks caldot1.tracks                  # serve queries from a stored file
//	otifd -segments-dir ./segs                    # replica over shipped segment files
//	otifd -stream -stream-cameras 2               # stream 2 simulated cameras once ready
//	otifd -log json -log-level debug              # structured logs on stderr
//
// Scraping, streaming and logging never change pipeline results:
// extraction runtimes and tuning curves are bit-identical with the
// daemon's surface active or idle.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"otif"
	"otif/internal/obs"
	"otif/internal/query"
	"otif/internal/serve"
	"otif/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		name     = flag.String("dataset", "caldot1", "dataset name")
		clips    = flag.Int("clips", 0, "clips per set (0 = default)")
		seconds  = flag.Float64("seconds", 0, "seconds per clip (0 = default)")
		seed     = flag.Int64("seed", 7, "sampling seed")
		nwork    = flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
		cacheMB  = flag.Int("cache-mb", 64, "frame cache budget in MiB (<= 0 disables); results are identical at any setting")
		logMode  = flag.String("log", "text", "structured log format: off, text, json")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn, error")
		ringCap  = flag.Int("events", 256, "buffered progress events retained per job")
		tracksF  = flag.String("tracks", "", "serve /v1/query/* from this stored track file at startup")
		segsDir  = flag.String("segments-dir", "", "serve /v1/query/* from the segment files (*.otifseg) in this directory; each dataset found becomes a registry entry")
		traceCap = flag.Int("trace-spans", obs.DefaultRecorderSpans, "flight-recorder span capacity (<= 0 disables tracing); oldest spans are overwritten when full")
		traceOut = flag.String("trace-out", "", "write the flight recorder's spans to this file on graceful shutdown")
		traceFmt = flag.String("trace-format", "otif", "trace format for -trace-out: otif (span JSON) or chrome (Perfetto-loadable trace events)")
		slowK    = flag.Int("slow-requests", serve.DefaultSlowRequests, "slowest /v1/query/* requests retained for GET /v1/debug/slow")

		stream         = flag.Bool("stream", false, "start streaming ingest once the pipeline is ready")
		streamCams     = flag.Int("stream-cameras", 2, "simulated camera count for -stream")
		streamClips    = flag.Int("stream-clips", 0, "clips per camera for -stream (0 = unbounded)")
		streamInterval = flag.Duration("stream-interval", 0, "per-camera clip emission interval for -stream (0 = as fast as backpressure allows)")
		streamQueue    = flag.Int("stream-queue", 0, "shared ingest queue depth (0 = twice the worker count)")
		streamDrop     = flag.Bool("stream-drop", false, "shed clips instead of blocking cameras when the ingest queue is full")
	)
	flag.Parse()
	otif.SetParallelism(*nwork)
	otif.SetCacheMB(*cacheMB)
	if *traceFmt != "otif" && *traceFmt != "chrome" {
		fmt.Fprintf(os.Stderr, "otifd: bad -trace-format %q (want otif or chrome)\n", *traceFmt)
		os.Exit(2)
	}
	// The flight recorder is always-on by default: span recording is cheap
	// (a ring-slot write under a sharded mutex) and the ring bounds memory,
	// so a live daemon can always answer /v1/debug/trace.
	if *traceCap > 0 {
		otif.EnableTracing(*traceCap)
	}
	logger, err := buildLogger(*logMode, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "otifd:", err)
		os.Exit(2)
	}
	otif.SetLogger(logger)
	logf := logger
	if logf == nil {
		logf = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	d := &daemon{}
	if *tracksF != "" {
		// The v2 track format is self-describing, so the file serves
		// queries with no dataset or geometry arguments — and before the
		// pipeline finishes training.
		f, err := os.Open(*tracksF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "otifd:", err)
			os.Exit(1)
		}
		ts, err := otif.ReadTrackSet(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "otifd:", err)
			os.Exit(1)
		}
		d.tracks.Store(ts)
		logf.Info("otifd: tracks loaded", "file", *tracksF, "dataset", ts.Dataset, "clips", len(ts.PerClip))
	}
	// The dataset registry the ?dataset= selector resolves against. The
	// daemon's own dataset is the default entry, answered through the
	// hot-swap chain (stream snapshot → published tracks → shipped
	// segments); every other dataset found in -segments-dir registers as a
	// static shard set under its own name.
	datasets := store.NewRegistry()
	datasets.Register(*name, store.ProviderFunc(d.snapshot))
	if *segsDir != "" {
		shards, err := store.OpenSegmentsDir(*segsDir, store.NewCache())
		if err != nil {
			fmt.Fprintln(os.Stderr, "otifd:", err)
			os.Exit(1)
		}
		for ds, sh := range shards {
			if ds == *name {
				d.shards.Store(sh)
			} else {
				datasets.Register(ds, sh)
			}
			logf.Info("otifd: segments loaded", "dataset", ds, "segments", len(sh.Segments()), "clips", sh.Clips())
		}
	}
	mgr := serve.NewManager(*ringCap)
	mgr.Register("tune", d.runTune)
	mgr.Register("extract", d.runExtract)
	mgr.Register("stream", d.runStream)
	srv := &serve.Server{
		Manager: mgr,
		Ready:   d.ready.Load,
		Queries: &serve.QueryAPI{Datasets: datasets, Movements: d.movements},
		Streams: d.streams,
		SlowK:   *slowK,
		// The effective flag values, for the debug bundle's config.json.
		Config: func() map[string]string {
			m := map[string]string{}
			flag.VisitAll(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
			return m
		},
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "otifd:", err)
		os.Exit(1)
	}
	// The parse-friendly line smoke tests and scripts key on; the chosen
	// port matters when -addr ends in :0.
	fmt.Printf("otifd: listening on http://%s\n", ln.Addr())
	logf.Info("otifd: serving", "addr", ln.Addr().String(), "dataset", *name)

	// Train and tune in the background; /healthz answers immediately,
	// /readyz flips once the pipeline can take jobs.
	go func() {
		start := time.Now()
		pipe, err := otif.Open(*name, otif.Options{
			ClipsPerSet: *clips, ClipSeconds: *seconds, Seed: *seed,
			Progress: d.relayProgress,
		})
		if err == nil {
			pipe.Train()
			d.mu.Lock()
			d.pipe = pipe
			d.curve, err = pipe.Tune(context.Background())
			d.mu.Unlock()
		}
		if err != nil {
			logf.Error("otifd: startup failed", "error", err)
			fmt.Fprintln(os.Stderr, "otifd:", err)
			os.Exit(1)
		}
		d.ready.Store(true)
		logf.Info("otifd: ready", "dataset", *name, "startup", time.Since(start).Round(time.Millisecond).String())
		if *stream {
			// -stream runs through the job manager so /jobs and the SSE
			// event stream cover it like any submitted stream job.
			job, err := mgr.Submit("stream", map[string]string{
				"cameras":  strconv.Itoa(*streamCams),
				"clips":    strconv.Itoa(*streamClips),
				"interval": streamInterval.String(),
				"queue":    strconv.Itoa(*streamQueue),
				"drop":     strconv.FormatBool(*streamDrop),
			})
			if err != nil {
				logf.Error("otifd: stream start failed", "error", err)
				return
			}
			logf.Info("otifd: streaming", "job", job.ID(), "cameras", *streamCams)
		}
	}()

	// A client that stalls sending its request, or holds an idle connection,
	// is dropped; responses (SSE, profiles) may take as long as they need.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "otifd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		logf.Info("otifd: shutting down")
		mgr.Close() // cancel running jobs, wait for their goroutines
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			httpSrv.Close()
		}
		if *traceOut != "" {
			if err := writeTraceFile(*traceOut, *traceFmt); err != nil {
				fmt.Fprintln(os.Stderr, "otifd:", err)
				os.Exit(1)
			}
			logf.Info("otifd: trace written", "file", *traceOut, "format", *traceFmt)
		}
	}
}

// writeTraceFile dumps the flight recorder's retained spans on graceful
// shutdown in the selected format.
func writeTraceFile(path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if format == "chrome" {
		err = otif.WriteChromeTrace(f)
	} else {
		err = otif.WriteTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// daemon owns the pipeline behind the job runners. mu serializes
// pipeline operations (tune and extract share trained state); relay
// routes the pipeline's progress events to whichever job is running.
type daemon struct {
	mu    sync.Mutex
	pipe  *otif.Pipeline
	curve []otif.Point

	relay  atomic.Pointer[obs.Progress]
	ready  atomic.Bool
	tracks atomic.Pointer[otif.TrackSet]
	// shards holds the primary dataset's shard set loaded from
	// -segments-dir (lowest-priority source behind streams and tracks).
	shards atomic.Pointer[store.Sharded]

	// session is the active streaming ingest, nil when idle; streaming
	// holds the single-stream gate (at most one stream job runs at once).
	session   atomic.Pointer[otif.IngestSession]
	streaming atomic.Bool
}

// snapshot exposes the current track store for the daemon's primary
// dataset. While a stream job runs, queries answer from the live store's
// latest snapshot — each snapshot is immutable, so a query concurrent
// with clip publication never observes a torn index. Otherwise the last
// published track set serves (an extract job's output, a -tracks file, or
// the -segments-dir shard set for this dataset). A nil return means "not
// loaded yet" (the query endpoints answer 503).
func (d *daemon) snapshot() store.Querier {
	if s := d.session.Load(); s != nil {
		if snap := s.Store(); snap.Clips() > 0 {
			return snap
		}
	}
	if ts := d.tracks.Load(); ts != nil {
		return ts.Index()
	}
	if sh := d.shards.Load(); sh != nil {
		return sh
	}
	return nil
}

// streams reports the active ingest session's stats for GET /v1/streams.
func (d *daemon) streams() (otif.IngestStats, bool) {
	if s := d.session.Load(); s != nil {
		return s.Stats(), true
	}
	return otif.IngestStats{}, false
}

// movements exposes the dataset's labeled movements for /v1/query/breakdown
// once the pipeline is up (a -tracks file alone carries no movements).
func (d *daemon) movements() []query.Movement {
	if !d.ready.Load() {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pipe == nil {
		return nil
	}
	return d.pipe.Movements()
}

func (d *daemon) relayProgress(e obs.Event) {
	if p := d.relay.Load(); p != nil {
		(*p)(e)
	}
}

// acquire locks the pipeline for one job and routes progress to it.
func (d *daemon) acquire(progress obs.Progress) (release func(), err error) {
	if !d.ready.Load() {
		return nil, errors.New("otifd: pipeline not ready (training or tuning still running)")
	}
	d.mu.Lock()
	d.relay.Store(&progress)
	return func() {
		d.relay.Store(nil)
		d.mu.Unlock()
	}, nil
}

// runTune re-runs the greedy joint tuner and replaces the daemon's
// speed-accuracy curve.
func (d *daemon) runTune(ctx context.Context, job *serve.Job, progress obs.Progress) (any, error) {
	release, err := d.acquire(progress)
	if err != nil {
		return nil, err
	}
	defer release()
	curve, err := d.pipe.Tune(ctx)
	if err != nil {
		return nil, err
	}
	d.curve = curve
	return map[string]any{"points": len(curve)}, nil
}

// runExtract extracts one clip set under the configuration picked from
// the current curve. Params: "set" (train|val|test, default test) and
// "tolerance" (accuracy tolerance for the pick, default 0.05).
func (d *daemon) runExtract(ctx context.Context, job *serve.Job, progress obs.Progress) (any, error) {
	v := job.View()
	set := otif.SetName(v.Params["set"])
	if set == "" {
		set = otif.Test
	}
	tol := 0.05
	if s := v.Params["tolerance"]; s != "" {
		var err error
		if tol, err = strconv.ParseFloat(s, 64); err != nil {
			return nil, fmt.Errorf("otifd: bad tolerance %q: %w", s, err)
		}
	}
	release, err := d.acquire(progress)
	if err != nil {
		return nil, err
	}
	defer release()
	pick, err := otif.PickFastestWithin(d.curve, tol)
	if err != nil {
		return nil, err
	}
	ts, err := d.pipe.Extract(ctx, pick.Cfg, set)
	if err != nil {
		return nil, err
	}
	acc, err := d.pipe.Accuracy(ts, set)
	if err != nil {
		return nil, err
	}
	// Publish the fresh tracks to the /query endpoints.
	d.tracks.Store(ts)
	return map[string]any{
		"set":      string(set),
		"config":   fmt.Sprintf("%v", pick.Cfg),
		"clips":    len(ts.PerClip),
		"runtime":  ts.Runtime,
		"accuracy": acc,
	}, nil
}

// runStream runs one streaming ingest session until its cameras are
// exhausted or the job is canceled. Unlike tune and extract it does not
// hold the pipeline mutex: ingest only reads trained state, so tune and
// extract jobs stay submittable while a stream runs. Progress events
// (one per published clip) flow to the job's SSE stream. Params:
// "cameras", "clips" (per camera, 0 = unbounded), "interval" (Go
// duration), "queue" (depth, 0 = default), "drop" (true sheds clips when
// the queue is full), "seconds" (clip duration, 0 = dataset default).
func (d *daemon) runStream(ctx context.Context, job *serve.Job, progress obs.Progress) (any, error) {
	if !d.ready.Load() {
		return nil, errors.New("otifd: pipeline not ready (training or tuning still running)")
	}
	if !d.streaming.CompareAndSwap(false, true) {
		return nil, errors.New("otifd: a stream job is already running")
	}
	defer d.streaming.Store(false)
	d.mu.Lock()
	pipe := d.pipe
	d.mu.Unlock()

	v := job.View()
	opts := otif.IngestOptions{Progress: progress, DropWhenFull: v.Params["drop"] == "true"}
	atoi := func(key string) (int, error) {
		s := v.Params[key]
		if s == "" {
			return 0, nil
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("otifd: bad %s %q: %w", key, s, err)
		}
		return n, nil
	}
	var err error
	if opts.Cameras, err = atoi("cameras"); err != nil {
		return nil, err
	}
	if opts.ClipsPerCamera, err = atoi("clips"); err != nil {
		return nil, err
	}
	if opts.QueueDepth, err = atoi("queue"); err != nil {
		return nil, err
	}
	if s := v.Params["interval"]; s != "" {
		if opts.Interval, err = time.ParseDuration(s); err != nil {
			return nil, fmt.Errorf("otifd: bad interval %q: %w", s, err)
		}
	}
	if s := v.Params["seconds"]; s != "" {
		if opts.ClipSeconds, err = strconv.ParseFloat(s, 64); err != nil {
			return nil, fmt.Errorf("otifd: bad seconds %q: %w", s, err)
		}
	}

	sess, err := pipe.Ingest(ctx, opts)
	if err != nil {
		return nil, err
	}
	d.session.Store(sess)
	waitErr := sess.Wait()
	st := sess.Stats()
	if st.ClipsIngested > 0 {
		// Keep the streamed tracks queryable after the session ends.
		d.tracks.Store(sess.Tracks())
	}
	d.session.Store(nil)
	if waitErr != nil && !errors.Is(waitErr, context.Canceled) {
		return nil, waitErr
	}
	return map[string]any{
		"clips":   st.ClipsIngested,
		"dropped": st.ClipsDropped,
		"runtime": st.Runtime,
	}, nil
}

// buildLogger constructs the slog logger selected by -log/-log-level;
// "off" returns nil (logging disabled process-wide).
func buildLogger(mode, level string) (*slog.Logger, error) {
	if mode == "off" {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch mode {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log %q (want off, text or json)", mode)
	}
}
