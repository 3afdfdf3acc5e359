// Command otifd serves the OTIF pipeline as a long-running daemon: it
// trains and tunes one dataset in the background, then exposes the
// standard operational surface over HTTP (this file parses flags; the
// daemon is serve.Daemon, run by serve.Run) —
//
//	GET  /metrics               Prometheus text exposition of the registry
//	GET  /healthz               liveness
//	GET  /readyz                readiness (503 until train+tune finish)
//	GET  /jobs                  job records (JSON)
//	POST /jobs                  submit {"kind":"extract"|"stream","params":{...}}
//	GET  /jobs/{id}             one job record
//	GET  /jobs/{id}/events      live job progress (SSE)
//	POST /jobs/{id}/cancel      cooperative cancellation
//	GET  /v1/datasets           registered datasets + segment manifests
//	GET  /v1/query/count        indexed track queries over the selected
//	GET  /v1/query/breakdown    dataset (?dataset=, default the daemon's
//	GET  /v1/query/limit        own): counts, path breakdown, frame-level
//	POST /v1/query/dwell        limit queries, dwell times (503 until loaded)
//	GET  /v1/streams            streaming ingest status (JSON)
//	GET  /v1/debug/trace        flight-recorder spans (Chrome trace-event JSON)
//	GET  /v1/debug/slow         slowest query requests with span subtrees
//	GET  /v1/debug/bundle       one-shot tar.gz post-mortem artifact
//	     /debug/pprof/*         CPU/heap/goroutine profiling, where go tool pprof expects it
//
// A query or job parameter the route or job kind does not take, one given
// twice, a value out of its bounds and a JSON body field the route does
// not know all answer 400: nothing a client sends is ignored.
//
// The flight recorder is always on: a ring of the newest 16384 spans
// overwrites oldest-first, so the daemon always holds its most recent
// window of activity under bounded memory. GET /v1/debug/trace serves it
// live and -trace-out writes it to a file on graceful shutdown, both as
// Chrome trace-event JSON that loads directly in Perfetto.
//
// The query endpoints answer from the indexed track store of whichever
// source published last: the -segments-dir track sets at start-up, each
// under the dataset name in its segment headers (queries work before the
// pipeline finishes training), a finished extract job, or a stream job
// from its first clip on — /v1/query/* then answers from the live store's
// latest immutable snapshot, so results grow clip by clip without ever
// exposing a torn index, and stay served after the stream ends. A stream
// starts like any job, once /readyz says so:
//
//	curl -XPOST localhost:8080/jobs -d '{"kind":"stream","params":{"cameras":"2"}}'
//
// Flags name only where the daemon runs and what it reads; every size it
// keeps (job event rings, the slow-request log, caches) is a constant.
//
//	otifd -dataset caldot1                        # default address :8080
//	otifd -addr 127.0.0.1:0 -clips 2 -seconds 2   # tiny instance, random port
//	otifd -segments-dir ./segs                    # serve queries from saved segment files
//	otifd -log json -log-level debug              # structured logs on stderr
//
// Scraping, streaming and logging never change pipeline results:
// extraction runtimes and tuning curves are bit-identical with the
// daemon's surface active or idle.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"

	"otif"
	"otif/internal/obs"
	"otif/internal/serve"
)

func main() {
	var cfg serve.Config
	flag.StringVar(&cfg.Dataset, "dataset", "caldot1", "dataset name")
	flag.IntVar(&cfg.Clips, "clips", 0, "clips per set (0 = default)")
	flag.Float64Var(&cfg.Seconds, "seconds", 0, "seconds per clip (0 = default)")
	flag.Int64Var(&cfg.Seed, "seed", 7, "sampling seed")
	flag.StringVar(&cfg.SegmentsDir, "segments-dir", "", "serve /v1/query/* from the segment files (*.otifseg) in this directory; each dataset found becomes a registry entry")
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		nwork    = flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
		logMode  = flag.String("log", "text", "structured log format: off, text, json")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn, error")
		traceOut = flag.String("trace-out", "", "write the flight recorder's spans to this file on graceful shutdown (Chrome trace-event JSON)")
	)
	flag.Parse()
	// The effective flag values, for the debug bundle's config.json.
	cfg.Flags = func() map[string]string {
		m := map[string]string{}
		flag.VisitAll(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
		return m
	}
	otif.SetParallelism(*nwork)
	// The flight recorder is always on: recording a span is a ring-slot
	// write and the ring bounds memory, so a live daemon can always answer
	// /v1/debug/trace.
	otif.EnableTracing()
	logger, err := buildLogger(*logMode, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "otifd:", err)
		os.Exit(2)
	}
	otif.SetLogger(logger)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The parse-friendly line smoke tests and scripts key on; the chosen
	// port matters when -addr ends in :0.
	fmt.Printf("otifd: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve.Run(ctx, ln, cfg); err != nil {
		fatal(err)
	}
	// The flight recorder's retained spans, on graceful shutdown.
	if *traceOut != "" {
		if err := obs.WriteTraceFile(*traceOut); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "otifd:", err)
	os.Exit(1)
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
