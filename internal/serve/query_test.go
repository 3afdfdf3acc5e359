package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"otif"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/query"
	"otif/internal/store"
)

// queryFixture builds a Server with a two-clip store: clip 0 holds two cars
// crossing the frame left-to-right, clip 1 holds one bus.
func queryFixture() (*Server, *store.Sharded) {
	car := func(id, startF int, y float64) *query.Track {
		return &query.Track{
			ID: id, Category: "car",
			Dets: []detect.Detection{
				{FrameIdx: startF, Box: geom.Rect{X: 10, Y: y, W: 40, H: 30}, Category: "car"},
				{FrameIdx: startF + 40, Box: geom.Rect{X: 560, Y: y, W: 40, H: 30}, Category: "car"},
			},
			Path: geom.Path{{X: 30, Y: y + 15}, {X: 580, Y: y + 15}},
		}
	}
	bus := &query.Track{
		ID: 7, Category: "bus",
		Dets: []detect.Detection{
			{FrameIdx: 5, Box: geom.Rect{X: 100, Y: 200, W: 80, H: 50}, Category: "bus"},
			{FrameIdx: 60, Box: geom.Rect{X: 400, Y: 200, W: 80, H: 50}, Category: "bus"},
		},
	}
	perClip := [][]*query.Track{
		{car(1, 0, 100), car(2, 20, 160)},
		{bus},
	}
	ctx := query.Context{FPS: 10, NomW: 640, NomH: 360, Frames: 100}
	st, err := store.NewSharded("test", ctx, store.SplitSegments(perClip, ctx, store.DefaultSealClips), nil)
	if err != nil {
		panic(err)
	}
	datasets := store.NewRegistry()
	datasets.Register("test", st)
	srv := &Server{
		Queries: &QueryAPI{
			Datasets: datasets,
			Movements: func() []query.Movement {
				return []query.Movement{{Name: "eastbound", Path: geom.Path{{X: 10, Y: 115}, {X: 600, Y: 115}}}}
			},
		},
	}
	return srv, st
}

func doQueryJSON(t *testing.T, srv *Server, method, target, body string) (int, map[string]any) {
	t.Helper()
	var req = httptest.NewRequest(method, target, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON response %q: %v", method, target, rec.Body.String(), err)
	}
	return rec.Code, out
}

func TestQueryCount(t *testing.T) {
	srv, st := queryFixture()
	code, out := doQueryJSON(t, srv, "GET", "/v1/query/count?category=car", "")
	if code != 200 {
		t.Fatalf("status = %d, want 200", code)
	}
	if out["total"].(float64) != 2 {
		t.Errorf("total = %v, want 2", out["total"])
	}
	want := st.CountTracks("car")
	got := out["per_clip"].([]any)
	if len(got) != len(want) {
		t.Fatalf("per_clip length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if int(got[i].(float64)) != want[i] {
			t.Errorf("clip %d: count %v, want %d", i, got[i], want[i])
		}
	}
	// A misspelled category must not answer for every category.
	if code, out := doQueryJSON(t, srv, "GET", "/v1/query/count?categroy=car", ""); code != 400 || out["error"] == nil {
		t.Errorf("categroy=car: status = %d, want 400 with a message: %v", code, out)
	}
}

func TestQueryBreakdown(t *testing.T) {
	srv, _ := queryFixture()
	code, out := doQueryJSON(t, srv, "GET", "/v1/query/breakdown?category=car", "")
	if code != 200 {
		t.Fatalf("status = %d, want 200: %v", code, out)
	}
	total := out["total"].(map[string]any)
	if total["eastbound"].(float64) != 2 {
		t.Errorf("eastbound = %v, want 2", total["eastbound"])
	}
}

func TestQueryBreakdownNoMovements(t *testing.T) {
	srv, _ := queryFixture()
	srv.Queries.Movements = nil
	code, _ := doQueryJSON(t, srv, "GET", "/v1/query/breakdown?category=car", "")
	if code != 404 {
		t.Errorf("status without movements = %d, want 404", code)
	}
}

// TestQueryBreakdownBadParam: NaN and Inf parse as floats but cannot be
// encoded as JSON, so unbounded they fail after the 200 header is out (an
// empty body); a negative distance matches nothing.
func TestQueryBreakdownBadParam(t *testing.T) {
	srv, _ := queryFixture()
	for _, q := range []string{"maxdist=NaN", "maxdist=Inf", "maxdist=-Inf", "maxdist=-1", "maxdist=far", "maxdst=9"} {
		code, out := doQueryJSON(t, srv, "GET", "/v1/query/breakdown?category=car&"+q, "")
		if code != 400 || out["error"] == nil {
			t.Errorf("%s: status = %d, want 400 with a message: %v", q, code, out)
		}
	}
	for _, q := range []string{"maxdist=0", "maxdist=1e300"} {
		if code, out := doQueryJSON(t, srv, "GET", "/v1/query/breakdown?category=car&"+q, ""); code != 200 {
			t.Errorf("%s: status = %d, want 200: %v", q, code, out)
		}
	}
}

func TestQueryLimit(t *testing.T) {
	srv, st := queryFixture()
	code, out := doQueryJSON(t, srv, "GET", "/v1/query/limit?category=car&n=2&limit=3&minsep=1", "")
	if code != 200 {
		t.Fatalf("status = %d, want 200: %v", code, out)
	}
	perClip := out["per_clip"].([]any)
	want := st.LimitQuery("car", query.CountPredicate{N: 2}, 3, 10)
	for i, w := range want {
		if got := perClip[i].([]any); len(got) != len(w) {
			t.Errorf("clip %d: %d matches, want %d", i, len(got), len(w))
		}
	}
	if len(want[0]) == 0 {
		t.Fatal("fixture should produce at least one 2-car frame in clip 0")
	}
	first := perClip[0].([]any)[0].(map[string]any)
	if int(first["frame"].(float64)) != want[0][0].FrameIdx {
		t.Errorf("first match frame %v, want %d", first["frame"], want[0][0].FrameIdx)
	}
	if boxes := first["boxes"].([]any); len(boxes) != 2 {
		t.Errorf("first match has %d boxes, want 2", len(boxes))
	}
}

func TestQueryLimitBadParam(t *testing.T) {
	srv, st := queryFixture()
	frames := st.Context().Frames
	for _, q := range []string{
		"n=two", "n=0", "n=-3",
		"limit=0", "limit=-1", fmt.Sprintf("limit=%d", frames+1), "limit=1e3",
		"minsep=-0.5", "minsep=NaN", "minsep=Inf", "minsep=-Inf", "minsep=soon",
		"limt=5", "n=1&n=2",
	} {
		code, out := doQueryJSON(t, srv, "GET", "/v1/query/limit?category=car&"+q, "")
		if code != 400 {
			t.Errorf("%s: status = %d, want 400: %v", q, code, out)
		}
	}
	// The bounds themselves are accepted, and a separation longer than the
	// clip is the same request as one of the clip's length.
	for _, q := range []string{"n=1&limit=1", fmt.Sprintf("limit=%d", frames), "minsep=0", "minsep=1e300"} {
		if code, out := doQueryJSON(t, srv, "GET", "/v1/query/limit?category=car&"+q, ""); code != 200 {
			t.Errorf("%s: status = %d, want 200: %v", q, code, out)
		}
	}
	// A store loaded without clip geometry has no frames to return, but
	// the route's defaults must not be a 400 there.
	bare := store.NewRegistry()
	empty, err := store.NewSharded("bare", query.Context{}, store.SplitSegments([][]*query.Track{nil}, query.Context{}, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	bare.Register("bare", empty)
	if code, out := doQueryJSON(t, &Server{Queries: &QueryAPI{Datasets: bare}}, "GET", "/v1/query/limit", ""); code != 200 {
		t.Errorf("defaults on a store without geometry: status = %d, want 200: %v", code, out)
	}
}

// FuzzQueryParams sends raw query strings to the limit and breakdown
// routes: each answers 200 with a JSON body, or 400 with an error, or 404
// with an error when it names a dataset the fixture does not have; none
// panics.
func FuzzQueryParams(f *testing.F) {
	for _, q := range []string{
		"n=two", "n=0", "n=-3", "limit=0", "limit=-1", "limit=101", "limit=1e3",
		"minsep=-0.5", "minsep=NaN", "minsep=Inf", "minsep=-Inf", "minsep=soon",
		"n=1&limit=1", "limit=100", "minsep=0", "minsep=1e300",
		"maxdist=NaN", "maxdist=Inf", "maxdist=-Inf", "maxdist=-1", "maxdist=far",
		"maxdist=0", "maxdist=1e300",
	} {
		f.Add("category=car&" + q)
	}
	srv, _ := queryFixture()
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, raw string) {
		for _, route := range []string{"/v1/query/limit", "/v1/query/breakdown"} {
			req := httptest.NewRequest("GET", route, nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var out map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("%s?%s: %d, non-JSON body %q", route, raw, rec.Code, rec.Body)
			}
			ds := req.URL.Query().Get("dataset")
			switch {
			case rec.Code == 200 && out["per_clip"] != nil:
			case rec.Code == 400 && out["error"] != nil:
			case rec.Code == 404 && out["error"] != nil && ds != "" && ds != "test":
			default:
				t.Fatalf("%s?%s: %d %v", route, raw, rec.Code, out)
			}
		}
	})
}

func TestQueryDwell(t *testing.T) {
	srv, st := queryFixture()
	body := `{"category":"car","region":[[-1,-1],[641,-1],[641,361],[-1,361]]}`
	code, out := doQueryJSON(t, srv, "POST", "/v1/query/dwell", body)
	if code != 200 {
		t.Fatalf("status = %d, want 200: %v", code, out)
	}
	want := st.DwellTime("car", geom.Polygon{{X: -1, Y: -1}, {X: 641, Y: -1}, {X: 641, Y: 361}, {X: -1, Y: 361}})
	perClip := out["per_clip"].([]any)
	for i, w := range want {
		got := perClip[i].(map[string]any)
		if len(got) != len(w) {
			t.Errorf("clip %d: %d dwell entries, want %d", i, len(got), len(w))
		}
	}
	// The whole-frame region must cover both cars of clip 0.
	if clip0 := perClip[0].(map[string]any); len(clip0) != 2 {
		t.Errorf("clip 0 dwell entries = %d, want 2", len(clip0))
	}
}

func TestQueryDwellBadRegion(t *testing.T) {
	srv, _ := queryFixture()
	code, _ := doQueryJSON(t, srv, "POST", "/v1/query/dwell", `{"category":"car","region":[[0,0],[1,1]]}`)
	if code != 400 {
		t.Errorf("status for 2-vertex region = %d, want 400", code)
	}
	code, _ = doQueryJSON(t, srv, "POST", "/v1/query/dwell", `not json`)
	if code != 400 {
		t.Errorf("status for invalid JSON = %d, want 400", code)
	}
	// A misspelled field must not answer for every category.
	code, _ = doQueryJSON(t, srv, "POST", "/v1/query/dwell", `{"categry":"car","region":[[0,0],[9,0],[9,9]]}`)
	if code != 400 {
		t.Errorf("status for a body with \"categry\" = %d, want 400", code)
	}
	// A polygon costs its vertex count per track per frame.
	ring := func(n int) string {
		return `{"category":"car","region":[` + strings.TrimSuffix(strings.Repeat("[0,0],", n), ",") + `]}`
	}
	if code, out := doQueryJSON(t, srv, "POST", "/v1/query/dwell", ring(maxRegionVertices+1)); code != 400 {
		t.Errorf("status for a %d-vertex region = %d, want 400: %v", maxRegionVertices+1, code, out)
	}
	if code, out := doQueryJSON(t, srv, "POST", "/v1/query/dwell", ring(maxRegionVertices)); code != 200 {
		t.Errorf("status for a %d-vertex region = %d, want 200: %v", maxRegionVertices, code, out)
	}
}

// TestQueryDwellBodyTooLarge: a body past maxBodyBytes is refused with 413
// before it is decoded.
func TestQueryDwellBodyTooLarge(t *testing.T) {
	srv, _ := queryFixture()
	body := `{"category":"` + strings.Repeat("x", maxBodyBytes) + `","region":[[0,0],[9,0],[9,9]]}`
	code, out := doQueryJSON(t, srv, "POST", "/v1/query/dwell", body)
	if code != 413 {
		t.Errorf("status for a %d-byte body = %d, want 413: %v", len(body), code, out)
	}
}

func TestQueryUnavailableStore(t *testing.T) {
	datasets := store.NewRegistry()
	datasets.Register("live", &otif.TrackSet{})
	srv := &Server{Queries: &QueryAPI{Datasets: datasets}}
	for _, target := range []string{"/v1/query/count", "/v1/query/breakdown", "/v1/query/limit"} {
		code, _ := doQueryJSON(t, srv, "GET", target, "")
		if code != 503 {
			t.Errorf("GET %s with nil store: status = %d, want 503", target, code)
		}
	}
	code, _ := doQueryJSON(t, srv, "POST", "/v1/query/dwell", `{}`)
	if code != 503 {
		t.Errorf("POST /v1/query/dwell with nil store: status = %d, want 503", code)
	}
}

func TestQueryRoutesAbsentWithoutAPI(t *testing.T) {
	srv := &Server{}
	req := httptest.NewRequest("GET", "/v1/query/count", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 404 {
		t.Errorf("status without Queries = %d, want 404", rec.Code)
	}
}
