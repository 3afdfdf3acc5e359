package serve

import (
	"net/http/httptest"
	"strings"
	"testing"

	"otif/internal/ingest"
	"otif/internal/query"
	"otif/internal/store"
)

// shardedFixtureDataset rebuilds the query fixture's clips as a two-segment
// Sharded, registered under "shards" — the same data served scatter-gather.
func shardedFixtureDataset(t *testing.T, srv *Server, st *store.Sharded) *store.Sharded {
	t.Helper()
	perClip := [][]*query.Track{st.Tracks(0), st.Tracks(1)}
	segs := store.SplitSegments(perClip, st.Context(), 1)
	sh, err := store.NewSharded("shards", st.Context(), segs, store.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	srv.Queries.Datasets.Register("shards", sh)
	return sh
}

// TestUnversionedRoutesGone is the routing table test: the query, stream
// and debug routes answer under /v1 only, and pprof only where the stdlib
// and go tool pprof expect it.
func TestUnversionedRoutesGone(t *testing.T) {
	srv, _ := queryFixture()
	srv.Streams = func() (ingest.Stats, bool) { return ingest.Stats{}, false }
	h := srv.Handler()

	status := func(method, target, body string) int {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	cases := []struct{ method, path, body string }{
		{"GET", "/query/count?category=car", ""},
		{"GET", "/query/breakdown?category=car", ""},
		{"GET", "/query/limit?category=car&n=2&limit=3", ""},
		{"POST", "/query/dwell", `{"category":"car","region":[[-1,-1],[641,-1],[641,361],[-1,361]]}`},
		{"GET", "/streams", ""},
		{"GET", "/debug/slow", ""},
		{"GET", "/debug/bundle", ""},
	}
	for _, c := range cases {
		if got := status(c.method, c.path, c.body); got != 404 {
			t.Errorf("%s %s = %d, want 404", c.method, c.path, got)
		}
		if got := status(c.method, "/v1"+c.path, c.body); got != 200 {
			t.Errorf("%s /v1%s = %d, want 200", c.method, c.path, got)
		}
	}
	if got := status("GET", "/debug/pprof/", ""); got != 200 {
		t.Errorf("GET /debug/pprof/ = %d, want 200", got)
	}
	if got := status("GET", "/v1/debug/pprof/", ""); got != 404 {
		t.Errorf("GET /v1/debug/pprof/ = %d, want 404", got)
	}
}

// TestDatasetsEndpoint pins the GET /v1/datasets shape: the default name
// plus one row per dataset, each with its segment manifest.
func TestDatasetsEndpoint(t *testing.T) {
	srv, st := queryFixture()
	shardedFixtureDataset(t, srv, st)

	code, out := doQueryJSON(t, srv, "GET", "/v1/datasets", "")
	if code != 200 {
		t.Fatalf("status = %d, want 200: %v", code, out)
	}
	if out["default"] != "test" {
		t.Errorf("default = %v, want test (first registered)", out["default"])
	}
	rows := out["datasets"].([]any)
	if len(rows) != 2 {
		t.Fatalf("datasets rows = %d, want 2", len(rows))
	}
	byName := map[string]map[string]any{}
	for _, r := range rows {
		m := r.(map[string]any)
		byName[m["name"].(string)] = m
	}
	for name, m := range byName {
		if m["ready"] != true || m["clips"].(float64) != 2 {
			t.Errorf("dataset %s = %v, want ready with 2 clips", name, m)
		}
	}
	// Every ready dataset shows its manifest: the fixture's one segment and
	// the rebuild's two, tiling the 2 clips.
	for name, want := range map[string]int{"test": 1, "shards": 2} {
		manifest, ok := byName[name]["manifest"].(map[string]any)
		if !ok {
			t.Fatalf("dataset %s has no manifest: %v", name, byName[name])
		}
		segs := manifest["segments"].([]any)
		if len(segs) != want {
			t.Fatalf("dataset %s: manifest segments = %d, want %d", name, len(segs), want)
		}
		next := 0.0
		for i, s := range segs {
			m := s.(map[string]any)
			if m["id"] != store.SegmentID(i) || m["start_clip"].(float64) != next || m["sealed"] != true {
				t.Errorf("dataset %s: manifest segment %d = %v", name, i, m)
			}
			next += m["clips"].(float64)
		}
		if next != 2 {
			t.Errorf("dataset %s: manifest segments cover %v clips, want 2", name, next)
		}
	}
}

// TestQueryDatasetSelector pins the ?dataset= contract: the empty selector
// answers from the default, a named dataset answers from its own store, a
// two-segment dataset answers byte-identically to the one-segment one over
// the same clips, and an unknown name is 404.
func TestQueryDatasetSelector(t *testing.T) {
	srv, st := queryFixture()
	shardedFixtureDataset(t, srv, st)
	h := srv.Handler()

	get := func(target, body string) (int, string) {
		method := "GET"
		if body != "" {
			method = "POST"
		}
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}

	codeDef, bodyDef := get("/v1/query/count?category=car", "")
	codeNamed, bodyNamed := get("/v1/query/count?category=car&dataset=test", "")
	codeShards, bodyShards := get("/v1/query/count?category=car&dataset=shards", "")
	if codeDef != 200 || codeNamed != 200 || codeShards != 200 {
		t.Fatalf("statuses = %d/%d/%d, want 200", codeDef, codeNamed, codeShards)
	}
	if bodyDef != bodyNamed {
		t.Error("default and dataset=test answers differ")
	}
	if bodyDef != bodyShards {
		t.Errorf("two-segment answer differs from one segment:\n  one: %s\nshard: %s", bodyDef, bodyShards)
	}

	if code, _ := get("/v1/query/count?category=car&dataset=nope", ""); code != 404 {
		t.Errorf("unknown dataset = %d, want 404", code)
	}

	// The selector must be read from the URL only: a POST body with a
	// dataset selector in the query string passes through intact.
	dwell := `{"category":"car","region":[[-1,-1],[641,-1],[641,361],[-1,361]]}`
	codeA, bodyA := get("/v1/query/dwell?dataset=test", dwell)
	codeB, bodyB := get("/v1/query/dwell?dataset=shards", dwell)
	if codeA != 200 || codeB != 200 {
		t.Fatalf("dwell with selector = %d/%d, want 200", codeA, codeB)
	}
	if bodyA != bodyB {
		t.Error("dwell over two segments differs from one segment")
	}
}
