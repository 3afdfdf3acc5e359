package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"unicode"

	"otif/internal/ingest"
	"otif/internal/obs"
)

// Server wires the exposition endpoints onto one stdlib http mux. The
// data-plane surface is versioned under /v1 and selects a dataset with
// ?dataset= (empty means the registry's default):
//
//	GET  /metrics               Prometheus text exposition of the registry
//	GET  /healthz               liveness (200 once the process serves)
//	GET  /readyz                readiness (503 until Ready() reports true)
//	GET  /jobs                  all job records, submission order (JSON)
//	POST /jobs                  submit {"kind": ..., "params": {...}} → 202
//	GET  /jobs/{id}             one job record (JSON)
//	GET  /jobs/{id}/events      the job's event stream (SSE)
//	POST /jobs/{id}/cancel      cooperative cancellation
//	GET  /v1/datasets           registered datasets + segment manifests
//	     /v1/query/*            indexed track queries (see QueryAPI)
//	GET  /v1/streams            streaming ingest status (JSON)
//	GET  /v1/debug/trace        flight-recorder spans (Chrome trace-event JSON)
//	GET  /v1/debug/slow         the K slowest query requests with spans
//	GET  /v1/debug/bundle       one-shot tar.gz post-mortem artifact
//	     /debug/pprof/*         CPU/heap/goroutine profiling, where the
//	                            stdlib and go tool pprof expect it
//
// A request body and every parameter a route or job takes are read one way
// each: a JSON body refuses an unknown field and a name given twice
// (decodeBody), and query and job parameters go through params, which
// refuses an unknown key, a key given twice and a value out of bounds.
// Either answers 400.
//
// Every route is wrapped with per-route telemetry (request counter,
// in-flight gauge, status-class counters, latency histogram) exported as
// serve.route.* metrics; see middleware.go.
type Server struct {
	// Registry is the metrics source; nil selects obs.Default.
	Registry *obs.Registry
	// Manager handles the /jobs endpoints; nil serves 404 for them.
	Manager *Manager
	// Queries handles the /v1/query endpoints; nil serves 404 for them.
	Queries *QueryAPI
	// Ready gates /readyz; nil means always ready.
	Ready func() bool
	// Streams reports the active ingest session's stats for GET /v1/streams;
	// ok is false when no session is streaming. nil serves 404 for the
	// endpoint.
	Streams func() (ingest.Stats, bool)
	// Config reports the effective configuration (flag values) for the
	// debug bundle; nil omits the bundle's config.json member.
	Config func() map[string]string

	// slow retains the slowRequests slowest /v1/query/* requests; built by
	// Handler.
	slow *slowLog
}

// Handler builds the routing table. Every route — including the debug
// and profiling endpoints — passes through the per-route telemetry
// wrapper.
func (s *Server) Handler() http.Handler {
	if s.slow == nil {
		s.slow = &slowLog{max: slowRequests}
	}
	mux := http.NewServeMux()
	handleFunc := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrumentRoute(pattern, h))
	}
	handleFunc("GET /metrics", s.handleMetrics)
	handleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	handleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Ready != nil && !s.Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	if s.Manager != nil {
		handleFunc("GET /jobs", s.handleJobList)
		handleFunc("POST /jobs", s.handleJobSubmit)
		handleFunc("GET /jobs/{id}", s.handleJobGet)
		handleFunc("GET /jobs/{id}/events", s.handleJobEvents)
		handleFunc("POST /jobs/{id}/cancel", s.handleJobCancel)
	}
	if s.Queries != nil {
		s.Queries.register(handleFunc)
	}
	if s.Streams != nil {
		handleFunc("GET /v1/streams", s.handleStreams)
	}
	handleFunc("GET /v1/debug/trace", s.handleTrace)
	handleFunc("GET /v1/debug/slow", s.handleSlow)
	handleFunc("GET /v1/debug/bundle", s.handleBundle)
	// The stdlib pprof handlers key on the hardcoded /debug/pprof/ prefix.
	handleFunc("/debug/pprof/", pprof.Index)
	handleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	handleFunc("/debug/pprof/profile", pprof.Profile)
	handleFunc("/debug/pprof/symbol", pprof.Symbol)
	handleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) registry() *obs.Registry {
	if s.Registry != nil {
		return s.Registry
	}
	return obs.Default
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WritePrometheus(w, s.registry().Snapshot()); err != nil && obs.Log() != nil {
		obs.Log().Warn("otifd: metrics write failed", "error", err)
	}
}

// streamStatus is the streaming ingest status /v1/streams and the debug
// bundle's streams.json report: {"streaming": false} when idle, the
// session's stats inline when a stream is active.
func (s *Server) streamStatus() map[string]any {
	st, ok := s.Streams()
	if !ok {
		return map[string]any{"streaming": false}
	}
	return map[string]any{"streaming": true, "stats": st}
}

// handleStreams always answers 200, so pollers need no error handling.
func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.streamStatus())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// maxBodyBytes bounds a POST body: a dwell region or a job's parameters, a
// few hundred bytes in practice.
const maxBodyBytes = 1 << 20

// decodeBody reads a JSON request body of at most maxBodyBytes into v. The
// body must be one JSON value, naming no field v does not have and no
// member of any object twice (checkNames): a misspelled or repeated name
// must not be read as something else. When it cannot it has answered 413
// or 400 itself.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err = dec.Decode(v); err == nil {
			if _, end := dec.Token(); end != io.EOF {
				err = errors.New("data after the JSON value")
			}
		}
	}
	if err == nil {
		// Decode has checked the body's syntax and bounded its depth.
		err = checkNames(json.NewDecoder(bytes.NewReader(body)))
	}
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "invalid JSON body: "+err.Error())
	return false
}

// checkNames refuses an object, anywhere in the JSON value dec reads next,
// that names a member twice. encoding/json would keep the last of the two,
// and it matches a name to a field case-insensitively, so names compare as
// strings.EqualFold does: {"category":…,"Category":…} names one twice.
func checkNames(dec *json.Decoder) error {
	t, err := dec.Token()
	if err != nil || (t != json.Delim('{') && t != json.Delim('[')) {
		return err
	}
	names := map[string]bool{}
	for dec.More() {
		if t == json.Delim('{') {
			k, err := dec.Token()
			if err != nil {
				return err
			}
			name := foldName(k.(string))
			if names[name] {
				return fmt.Errorf("member %q named twice", k)
			}
			names[name] = true
		}
		if err := checkNames(dec); err != nil {
			return err
		}
	}
	_, err = dec.Token() // the closing delimiter
	return err
}

// foldName spells every name of one strings.EqualFold class the same way:
// each rune becomes the least rune of its simple case-folding orbit.
func foldName(name string) string {
	return strings.Map(func(r rune) rune {
		for {
			f := unicode.SimpleFold(r)
			if f <= r {
				return f
			}
			r = f
		}
	}, name)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"kinds": s.Manager.Kinds(),
		"jobs":  s.Manager.List(),
	})
}

// submitRequest is the POST /jobs body.
type submitRequest struct {
	Kind   string            `json:"kind"`
	Params map[string]string `json:"params"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Kind == "" {
		writeError(w, http.StatusBadRequest, `missing "kind"`)
		return
	}
	job, err := s.Manager.Submit(req.Kind, req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, job.View())
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.Manager.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", id))
		return nil, false
	}
	return job, true
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, job.View())
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.Manager.Cancel(job.ID()); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

// handleJobEvents streams the job's events as Server-Sent Events from a
// cursor: the seq of the last event sent, which starts at the request's
// Last-Event-ID (0 without one). Each pass copies the retained events after
// the cursor, sends them, and waits for the next publish. The stream ends
// after a terminal state event, at once when the job has ended and nothing
// follows the cursor, or when the client goes. Each frame carries the
// per-job sequence number as the SSE id, the event kind as the SSE event
// name, and the JobEvent JSON as data.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	var last int64
	if id := r.Header.Get("Last-Event-ID"); id != "" {
		n, err := strconv.ParseUint(id, 10, 63)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("Last-Event-ID %q is not a non-negative integer", id))
			return
		}
		last = int64(n)
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	for {
		// Read before the events: a job terminal here has published its
		// last event, so the copy below holds everything still to come.
		ended := job.State().Terminal()
		events, changed := job.since(last)
		for _, e := range events {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data); err != nil {
				return
			}
			last = e.Seq
			if e.Kind == eventState && e.State.Terminal() {
				ended = true
				break
			}
		}
		if canFlush {
			fl.Flush()
		}
		if ended {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}
