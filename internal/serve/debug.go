package serve

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	rpprof "runtime/pprof"
	"time"

	"otif/internal/obs"
)

// Debug endpoints: one-shot introspection of a live daemon.
//
//	GET /v1/debug/trace    the flight recorder's spans
//	GET /v1/debug/slow     the K slowest /v1/query/* requests
//	GET /v1/debug/bundle   tar.gz post-mortem artifact
//
// /v1/debug/trace answers 404 while tracing is disabled. Its Chrome
// trace-event JSON loads directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing.

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec := obs.CurrentRecorder()
	if rec == nil {
		writeError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="otif-trace.chrome.json"`)
	rec.WriteChrome(w)
}

func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	entries := []slowRequest{}
	k := 0
	if s.slow != nil {
		entries = s.slow.snapshot()
		k = s.slow.max
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"k":        k,
		"requests": entries,
	})
}

// handleBundle streams one tar.gz carrying everything a post-mortem
// needs: the metrics registry (JSON and Prometheus text), the flight
// recorder's trace, the slow-request log, goroutine and heap profiles, build
// info, the effective configuration, and streaming-ingest status. Every
// member is built in memory first so a failing collector degrades to a
// missing member instead of a truncated archive.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", `attachment; filename="otif-debug-bundle.tar.gz"`)
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	now := time.Now()
	add := func(name string, fill func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := fill(&buf); err != nil {
			if obs.Log() != nil {
				obs.Log().Warn("otifd: bundle member failed", "member", name, "error", err)
			}
			return
		}
		tw.WriteHeader(&tar.Header{
			Name:    name,
			Mode:    0644,
			Size:    int64(buf.Len()),
			ModTime: now,
		})
		tw.Write(buf.Bytes())
	}
	addJSON := func(name string, v any) {
		add(name, func(buf *bytes.Buffer) error {
			enc := json.NewEncoder(buf)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		})
	}

	snap := s.registry().Snapshot()
	addJSON("metrics.json", snap)
	add("metrics.prom", func(buf *bytes.Buffer) error {
		return WritePrometheus(buf, snap)
	})
	add("trace.chrome.json", func(buf *bytes.Buffer) error { return obs.CurrentRecorder().WriteChrome(buf) })
	slow := []slowRequest{}
	if s.slow != nil {
		slow = s.slow.snapshot()
	}
	addJSON("slow.json", slow)
	add("goroutines.txt", func(buf *bytes.Buffer) error {
		return rpprof.Lookup("goroutine").WriteTo(buf, 2)
	})
	add("heap.pprof", func(buf *bytes.Buffer) error {
		return rpprof.Lookup("heap").WriteTo(buf, 0)
	})
	add("buildinfo.txt", func(buf *bytes.Buffer) error {
		info, ok := debug.ReadBuildInfo()
		if !ok {
			return fmt.Errorf("no build info")
		}
		_, err := buf.WriteString(info.String())
		return err
	})
	if s.Config != nil {
		addJSON("config.json", s.Config())
	}
	if s.Streams != nil {
		addJSON("streams.json", s.streamStatus())
	}

	if err := tw.Close(); err == nil {
		gz.Close()
	}
}
