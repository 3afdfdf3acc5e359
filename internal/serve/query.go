package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"otif/internal/geom"
	"otif/internal/query"
	"otif/internal/store"
)

// QueryAPI serves the versioned query endpoints over the dataset registry:
//
//	GET  /v1/datasets                                 registered datasets + manifests
//	GET  /v1/query/count?category=car                 per-clip track counts
//	GET  /v1/query/breakdown?category=car&maxdist=90  path (movement) breakdown
//	GET  /v1/query/limit?category=car&n=2&limit=5&minsep=1.5
//	                                                  frame-level limit query
//	POST /v1/query/dwell {"category":"car","region":[[x,y],...]}
//	                                                  per-track dwell seconds
//
// Every query endpoint accepts a ?dataset= selector resolved against
// Datasets; the empty selector means the registry's default dataset, so
// single-dataset deployments need no selector. The selector is read from
// the URL query string only — never the body — so POST bodies pass
// through untouched.
//
// Datasets supplies the named stores. A default dataset that is not yet
// loaded answers 503; an explicitly named dataset that is not registered
// answers 404. Movements supplies the dataset's labeled movements for
// /v1/query/breakdown (nil: 404 for that endpoint's data).
type QueryAPI struct {
	Datasets  *store.Registry
	Movements func() []query.Movement
}

// register mounts the query routes.
func (q *QueryAPI) register(handle func(pattern string, h http.HandlerFunc)) {
	handle("GET /v1/datasets", q.handleDatasets)
	routes := []struct {
		method, name string
		h            http.HandlerFunc
	}{
		{"GET", "count", q.withStore(q.handleCount)},
		{"GET", "breakdown", q.withStore(q.handleBreakdown)},
		{"GET", "limit", q.withStore(q.handleLimit)},
		{"POST", "dwell", q.withStore(q.handleDwell)},
	}
	for _, rt := range routes {
		handle(rt.method+" /v1/query/"+rt.name, rt.h)
	}
}

// resolve maps the request's ?dataset= selector to a point-in-time store.
// The error, when non-nil, has already been written to w.
func (q *QueryAPI) resolve(w http.ResponseWriter, r *http.Request) (store.Querier, bool) {
	// URL query only: FormValue would consume a form-encoded POST body.
	name := r.URL.Query().Get("dataset")
	if q.Datasets == nil {
		writeError(w, http.StatusServiceUnavailable, "no dataset registry configured")
		return nil, false
	}
	s, err := q.Datasets.Resolve(name)
	if err != nil {
		if name == "" {
			// No default registered yet: the deployment is still loading.
			writeError(w, http.StatusServiceUnavailable, "no track set loaded (extract first, or start with -segments-dir)")
		} else {
			writeError(w, http.StatusNotFound, err.Error())
		}
		return nil, false
	}
	if s == nil {
		writeError(w, http.StatusServiceUnavailable, "no track set loaded (extract first, or start with -segments-dir)")
		return nil, false
	}
	return s, true
}

// withStore wraps a query handler with dataset resolution. Requests, errors
// and latency are the route middleware's serve.route.v1_query_* series.
func (q *QueryAPI) withStore(h func(w http.ResponseWriter, r *http.Request, s store.Querier)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s, ok := q.resolve(w, r); ok {
			h(w, r, s)
		}
	}
}

// datasetView is one row of the GET /v1/datasets response; a ready row
// carries its track set's manifest, a not-ready one the zero Manifest.
type datasetView struct {
	Name     string         `json:"name"`
	Ready    bool           `json:"ready"`
	Clips    int            `json:"clips"`
	Manifest store.Manifest `json:"manifest"`
}

func (q *QueryAPI) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if q.Datasets == nil {
		writeError(w, http.StatusServiceUnavailable, "no dataset registry configured")
		return
	}
	names := q.Datasets.Names()
	views := make([]datasetView, 0, len(names))
	for _, name := range names {
		v := datasetView{Name: name}
		if s, err := q.Datasets.Resolve(name); err == nil && s != nil {
			v.Ready, v.Clips, v.Manifest = true, s.Clips(), s.Manifest()
		}
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"default":  q.Datasets.Default(),
		"datasets": views,
	})
}

func (q *QueryAPI) handleCount(w http.ResponseWriter, r *http.Request, s store.Querier) {
	cat := r.FormValue("category")
	perClip := s.CountTracks(cat)
	total := 0
	for _, c := range perClip {
		total += c
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"category": cat,
		"per_clip": perClip,
		"total":    total,
	})
}

func (q *QueryAPI) handleBreakdown(w http.ResponseWriter, r *http.Request, s store.Querier) {
	var movements []query.Movement
	if q.Movements != nil {
		movements = q.Movements()
	}
	if len(movements) == 0 {
		writeError(w, http.StatusNotFound, "no movements available for this dataset")
		return
	}
	cat := r.FormValue("category")
	maxDist, err := nonNegParam(r, "maxdist", 0.22*float64(s.Context().NomW))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	perClip := s.PathBreakdown(cat, movements, maxDist)
	agg := map[string]int{}
	for _, m := range perClip {
		for k, v := range m {
			agg[k] += v
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"category": cat,
		"maxdist":  maxDist,
		"per_clip": perClip,
		"total":    agg,
	})
}

// limitFrame is one frame match in the /v1/query/limit response.
type limitFrame struct {
	FrameIdx int         `json:"frame"`
	Boxes    []geom.Rect `json:"boxes"`
}

func (q *QueryAPI) handleLimit(w http.ResponseWriter, r *http.Request, s store.Querier) {
	cat := r.FormValue("category")
	n, limit, minSep, err := limitParams(r, s.Context())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	perClip := s.LimitQuery(cat, query.CountPredicate{N: n}, limit, minSep)
	out := make([][]limitFrame, len(perClip))
	for i, ms := range perClip {
		out[i] = make([]limitFrame, len(ms))
		for j, m := range ms {
			out[i][j] = limitFrame{FrameIdx: m.FrameIdx, Boxes: m.Boxes}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"category": cat,
		"n":        n,
		"per_clip": out,
	})
}

// limitParams reads the limit route's parameters and bounds them: n=0
// would match every empty frame, limit=-1 silently returns nothing, and a
// minsep that is not a finite number, 0 or more, is refused; an accepted
// one converts to frames through query.Context.SepFrames.
func limitParams(r *http.Request, ctx query.Context) (n, limit, minSep int, err error) {
	// A clip cannot return more frames than it has; a store without clip
	// geometry (Frames 0) still accepts the smallest request.
	maxLimit := max(ctx.Frames, 1)
	n, err = intParam(r, "n", 1)
	if err == nil {
		limit, err = intParam(r, "limit", min(10, maxLimit))
	}
	var sec float64
	if err == nil {
		sec, err = nonNegParam(r, "minsep", 0)
	}
	switch {
	case err != nil:
	case n < 1:
		err = fmt.Errorf("n must be at least 1, got %d", n)
	case limit < 1 || limit > maxLimit:
		err = fmt.Errorf("limit must be between 1 and %d (the clip's frame count), got %d", maxLimit, limit)
	}
	if err != nil {
		return 0, 0, 0, err
	}
	return n, limit, ctx.SepFrames(sec), nil
}

// maxRegionVertices bounds a dwell region: DwellTime tests the polygon,
// linear in its vertices, once per track per frame, and a body of
// maxBodyBytes holds tens of thousands of vertices.
const maxRegionVertices = 1024

// dwellRequest is the POST /v1/query/dwell body: a category and a
// polygonal region as [x, y] vertex pairs in nominal frame coordinates.
type dwellRequest struct {
	Category string       `json:"category"`
	Region   [][2]float64 `json:"region"`
}

func (q *QueryAPI) handleDwell(w http.ResponseWriter, r *http.Request, s store.Querier) {
	var req dwellRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Region) < 3 || len(req.Region) > maxRegionVertices {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("region needs 3 to %d vertices, got %d", maxRegionVertices, len(req.Region)))
		return
	}
	region := make(geom.Polygon, len(req.Region))
	for i, p := range req.Region {
		region[i] = geom.Point{X: p[0], Y: p[1]}
	}
	perClip := s.DwellTime(req.Category, region)
	out := make([]map[string]float64, len(perClip))
	for i, m := range perClip {
		out[i] = make(map[string]float64, len(m))
		for id, sec := range m {
			out[i][strconv.Itoa(id)] = sec
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"category": req.Category,
		"per_clip": out,
	})
}

func intParam(r *http.Request, name string, def int) (int, error) {
	s := r.FormValue(name)
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// nonNegParam reads a distance or a duration: finite and 0 or more. NaN and
// Inf parse as floats, compare false with everything (or match everything)
// and cannot be encoded as JSON; a negative value can match nothing.
func nonNegParam(r *http.Request, name string, def float64) (float64, error) {
	s := r.FormValue(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0) || v < 0) {
		err = fmt.Errorf("%s must be a finite number, 0 or more, got %v", name, v)
	}
	return v, err
}
