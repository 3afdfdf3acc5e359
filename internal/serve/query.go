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
// single-dataset deployments need no selector. Parameters are read from
// the URL query string only — never the body — through the one reader
// (params), which answers 400 for a value out of bounds, a key the route
// does not take, or a key given twice; the dwell body refuses unknown
// fields too (decodeBody). An empty category means every category.
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
		h            queryHandler
	}{
		{"GET", "count", q.handleCount},
		{"GET", "breakdown", q.handleBreakdown},
		{"GET", "limit", q.handleLimit},
		{"POST", "dwell", q.handleDwell},
	}
	for _, rt := range routes {
		handle(rt.method+" /v1/query/"+rt.name, q.withStore(rt.name, rt.h))
	}
}

// queryHandler answers one query route from a resolved store. It reads its
// parameters from p and answers 400 when p.check fails (badParams).
type queryHandler func(w http.ResponseWriter, r *http.Request, s store.Querier, p *params)

// resolve maps the request's dataset selector to a point-in-time store.
// The error, when non-nil, has already been written to w.
func (q *QueryAPI) resolve(w http.ResponseWriter, name string) (store.Querier, bool) {
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

// withStore wraps a query handler with its parameters and dataset
// resolution. Requests, errors and latency are the route middleware's
// serve.route.v1_query_* series.
func (q *QueryAPI) withStore(route string, h queryHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// The URL's query string only, never a form-encoded POST body.
		p := &params{what: route + " query", v: r.URL.Query()}
		if s, ok := q.resolve(w, p.str("dataset")); ok {
			h(w, r, s, p)
		}
	}
}

// badParams answers 400 and reports true when p holds a failure.
func badParams(w http.ResponseWriter, p *params) bool {
	err := p.check()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
	}
	return err != nil
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

func (q *QueryAPI) handleCount(w http.ResponseWriter, r *http.Request, s store.Querier, p *params) {
	cat := p.str("category")
	if badParams(w, p) {
		return
	}
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

func (q *QueryAPI) handleBreakdown(w http.ResponseWriter, r *http.Request, s store.Querier, p *params) {
	cat := p.str("category")
	// A distance: finite and 0 or more. NaN and Inf cannot be encoded as
	// JSON, and a negative distance matches nothing.
	maxDist := num(p, "maxdist", 0.22*float64(s.Context().NomW), 0, math.MaxFloat64, parseFloat)
	if badParams(w, p) {
		return
	}
	var movements []query.Movement
	if q.Movements != nil {
		movements = q.Movements()
	}
	if len(movements) == 0 {
		writeError(w, http.StatusNotFound, "no movements available for this dataset")
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

// handleLimit bounds its parameters: n=0 would match every empty frame,
// and a clip cannot return more frames than it has (a store without clip
// geometry, Frames 0, still takes the smallest request). A separation in
// seconds, finite and 0 or more, converts through query.Context.SepFrames.
func (q *QueryAPI) handleLimit(w http.ResponseWriter, r *http.Request, s store.Querier, p *params) {
	ctx := s.Context()
	maxLimit := max(ctx.Frames, 1)
	cat := p.str("category")
	n := num(p, "n", 1, 1, math.MaxInt, strconv.Atoi)
	limit := num(p, "limit", min(10, maxLimit), 1, maxLimit, strconv.Atoi)
	minSep := num(p, "minsep", 0, 0, math.MaxFloat64, parseFloat)
	if badParams(w, p) {
		return
	}
	perClip := s.LimitQuery(cat, query.CountPredicate{N: n}, limit, ctx.SepFrames(minSep))
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

func (q *QueryAPI) handleDwell(w http.ResponseWriter, r *http.Request, s store.Querier, p *params) {
	if badParams(w, p) {
		return
	}
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
