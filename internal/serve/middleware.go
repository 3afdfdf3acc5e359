package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"otif/internal/obs"
)

// Per-route telemetry. Every route the Server exposes is wrapped with one
// routeStats: a request counter, an in-flight gauge, status-class
// counters, and a latency histogram, all named under
// serve.route.<key>.* where <key> is the sanitized route path
// ("GET /v1/query/count" → "v1_query_count"). Methods sharing a path share a
// key — the route is the resource, and the status-class counters
// distinguish outcomes. The wrapper also opens one "serve"-stage span per
// request, so handler-internal spans (store scans, job submissions) nest
// under their request in the flight recorder.

// routeLatencyBounds are the histogram buckets for per-route request
// latencies, in seconds. The paper's contract is millisecond query
// execution over stored tracks, so the buckets resolve 100µs..1s.
var routeLatencyBounds = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}

// routeKey sanitizes a mux pattern into a metric-name segment: the method
// is dropped, path separators and wildcards become underscores.
func routeKey(pattern string) string {
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		pattern = pattern[i+1:]
	}
	var b strings.Builder
	pendingSep := false
	for _, c := range pattern {
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
		default:
			pendingSep = b.Len() > 0
			continue
		}
		if pendingSep {
			b.WriteByte('_')
			pendingSep = false
		}
		b.WriteRune(c)
	}
	if b.Len() == 0 {
		return "root"
	}
	return b.String()
}

// routeStats is the pre-registered metric set of one route.
type routeStats struct {
	requests *obs.Counter
	seconds  *obs.Histogram
	inflight *obs.Gauge
	status   [4]*obs.Counter // 2xx, 3xx, 4xx, 5xx
}

// statusWriter captures the response status code without changing the
// response. It forwards Flush (the SSE endpoint needs it) and exposes the
// wrapped writer through Unwrap for http.ResponseController.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrumentRoute wraps one route's handler with its telemetry: metrics
// registration happens once here at routing-table build time, and the
// per-request path only touches pre-registered handles. Requests under
// /v1/query/ additionally compete for the slow-request log.
func (s *Server) instrumentRoute(pattern string, h http.Handler) http.Handler {
	key := routeKey(pattern)
	reg := s.registry()
	base := "serve.route." + key
	st := &routeStats{
		requests: reg.Counter(base + ".requests"),
		seconds:  reg.Histogram(base+".seconds", routeLatencyBounds...),
		inflight: reg.Gauge(base + ".inflight"),
	}
	for i := range st.status {
		st.status[i] = reg.Counter(fmt.Sprintf("%s.status_%dxx", base, i+2))
	}
	path := pattern
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[i+1:]
	}
	slowCandidate := strings.HasPrefix(path, "/v1/query/")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st.requests.Inc()
		st.inflight.Add(1)
		defer st.inflight.Add(-1)

		ctx, sp := obs.StartSpan(r.Context(), "http."+key)
		sp.SetStage("serve")
		var tee *bodyTee
		if slowCandidate && r.Body != nil {
			tee = &bodyTee{rc: r.Body}
			r.Body = tee
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start).Seconds()

		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		sp.SetErr(code >= 500)
		sp.End()
		st.seconds.Observe(elapsed)
		if c := code/100 - 2; c >= 0 && c < len(st.status) {
			st.status[c].Inc()
		}
		if slowCandidate && s.slow != nil {
			e := slowRequest{
				Route:   key,
				Method:  r.Method,
				Path:    r.URL.Path,
				Query:   r.URL.RawQuery,
				Status:  code,
				Seconds: elapsed,
				Time:    time.Now().UTC(),
			}
			if tee != nil && tee.buf.Len() > 0 {
				e.Body = tee.buf.String()
			}
			s.slow.offer(e, func() []obs.SpanRecord {
				return obs.CurrentRecorder().Subtree(sp.ID())
			})
		}
	})
}

// bodyTee copies the first slowBodyCap bytes of a request body as it is
// read, so the slow-request log can show the parameters of a slow POST
// query without buffering unbounded bodies.
const slowBodyCap = 4 << 10

type bodyTee struct {
	rc  io.ReadCloser
	buf bytes.Buffer
}

func (t *bodyTee) Read(p []byte) (int, error) {
	n, err := t.rc.Read(p)
	if n > 0 && t.buf.Len() < slowBodyCap {
		m := n
		if rem := slowBodyCap - t.buf.Len(); m > rem {
			m = rem
		}
		t.buf.Write(p[:m])
	}
	return n, err
}

func (t *bodyTee) Close() error { return t.rc.Close() }

// slowRequests is how many slow requests the Server retains: enough to
// see the slow kinds side by side, each entry holding its span subtree.
const slowRequests = 16

// slowRequest is one retained entry of the slow-request log: the request
// identity and parameters plus the span subtree the request produced in
// the flight recorder (empty when tracing is disabled or the spans have
// already been overwritten).
type slowRequest struct {
	Route   string           `json:"route"`
	Method  string           `json:"method"`
	Path    string           `json:"path"`
	Query   string           `json:"query,omitempty"`
	Body    string           `json:"body,omitempty"`
	Status  int              `json:"status"`
	Seconds float64          `json:"seconds"`
	Time    time.Time        `json:"time"`
	Spans   []obs.SpanRecord `json:"spans,omitempty"`
}

// slowLog retains the slowest query requests seen so far, at most max of
// them, slowest first.
type slowLog struct {
	mu      sync.Mutex
	max     int
	entries []slowRequest
}

// offer inserts e if it ranks among the K slowest. The span subtree is
// materialized through spans() only for qualifying entries, outside the
// lock — the common fast request costs one mutexed comparison.
func (l *slowLog) offer(e slowRequest, spans func() []obs.SpanRecord) {
	l.mu.Lock()
	if len(l.entries) >= l.max && e.Seconds <= l.entries[len(l.entries)-1].Seconds {
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	if spans != nil {
		e.Spans = spans()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.entries), func(i int) bool {
		return l.entries[i].Seconds < e.Seconds
	})
	if i >= l.max {
		return // raced: the log filled with slower entries meanwhile
	}
	l.entries = append(l.entries, slowRequest{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
	if len(l.entries) > l.max {
		l.entries = l.entries[:l.max]
	}
}

// snapshot copies the retained entries, slowest first.
func (l *slowLog) snapshot() []slowRequest {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]slowRequest(nil), l.entries...)
}
