package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// bodyFixture is queryFixture's server with a job manager that runs one
// kind, "noop", so both JSON body routes answer.
func bodyFixture(tb testing.TB) *Server {
	srv, _ := queryFixture()
	srv.Manager = NewManager()
	srv.Manager.Register("noop", func(context.Context, *Job) (any, error) { return nil, nil })
	tb.Cleanup(srv.Manager.Close)
	return srv
}

// postBody posts body to route and returns the status and response body.
func postBody(h http.Handler, route, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", route, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// TestBodyRefusesRepeatedNames: a name given twice in any object of a
// body, in any case, is a 400 naming it, not the last spelling read. A
// name repeated in another object, and one body value, are fine.
func TestBodyRefusesRepeatedNames(t *testing.T) {
	h := bodyFixture(t).Handler()
	const region = `"region":[[0,0],[9,0],[9,9]]`
	for _, c := range []struct {
		name, route, body string
		status            int
		says              string
	}{
		{"dwell", "/v1/query/dwell", `{"category":"car",` + region + `}`, 200, ""},
		{"repeated category", "/v1/query/dwell", `{"category":"car","category":"bus",` + region + `}`, 400, `"category"`},
		{"case-variant Category", "/v1/query/dwell", `{"category":"car","Category":"bus",` + region + `}`, 400, `"Category"`},
		{"repeated region", "/v1/query/dwell", `{"category":"car",` + region + `,` + region + `}`, 400, `"region"`},
		{"two values", "/v1/query/dwell", `{"category":"car",` + region + `} {}`, 400, "data after the JSON value"},
		{"job", "/jobs", `{"kind":"noop","params":{"kind":"a","Set":"b"}}`, 202, ""},
		{"repeated kind", "/jobs", `{"kind":"noop","kind":"extract"}`, 400, `"kind"`},
		{"case-variant KIND", "/jobs", `{"KIND":"extract","kind":"noop"}`, 400, `"kind"`},
		{"repeated params key", "/jobs", `{"kind":"noop","params":{"set":"val","set":"test"}}`, 400, `"set"`},
		{"case-variant params key", "/jobs", `{"kind":"noop","params":{"set":"val","SET":"test"}}`, 400, `"SET"`},
		{"repeated params", "/jobs", `{"kind":"noop","params":{},"params":{"set":"val"}}`, 400, `"params"`},
	} {
		code, body := postBody(h, c.route, c.body)
		var out struct{ Error string }
		json.Unmarshal([]byte(body), &out)
		if code != c.status || !strings.Contains(out.Error, c.says) {
			t.Errorf("%s: POST %s %s = %d %s, want %d naming %s", c.name, c.route, c.body, code, body, c.status, c.says)
		}
	}
}

// TestBodyNesting: a body deeper than encoding/json decodes is refused,
// and checkNames finds a repeat at any depth Decode lets through.
func TestBodyNesting(t *testing.T) {
	h := bodyFixture(t).Handler()
	nest := func(depth int, inner string) string {
		return strings.Repeat("[", depth) + inner + strings.Repeat("]", depth)
	}
	code, body := postBody(h, "/jobs", `{"kind":"noop","params":`+nest(20000, "1")+`}`)
	if code != 400 || !strings.Contains(body, "exceeded max depth") {
		t.Errorf("POST /jobs with 20000 nested arrays = %d %.200s, want 400 exceeded max depth", code, body)
	}
	for _, c := range []struct {
		body, err string
	}{
		{nest(9000, `{"a":1,"b":{"a":2}}`), ""},
		{nest(9000, `{"a":1,"b":{"a":2,"A":3}}`), `member "A" named twice`},
		{`{"\u00df":1,"ss":2,"k":3,"\u212a":4}`, "member \"\u212a\" named twice"}, // ß is not ss; the Kelvin sign is k
		{`{"\u017f":1,"S":2}`, `member "S" named twice`},                          // long s is s
	} {
		err := checkNames(json.NewDecoder(strings.NewReader(c.body)))
		if got := fmt.Sprint(err); (c.err == "" && err != nil) || (c.err != "" && !strings.Contains(got, c.err)) {
			t.Errorf("checkNames(%.40s…) = %v, want %q", c.body, err, c.err)
		}
	}
}

// FuzzJSONBody sends raw bodies to both JSON body routes: never a panic,
// and a 2xx only for a body that is one JSON value in which no object names
// a member twice, compared with strings.EqualFold pair by pair.
func FuzzJSONBody(f *testing.F) {
	for _, b := range []string{
		`{"category":"car","region":[[0,0],[9,0],[9,9]]}`,
		`{"category":"car","Category":"bus","region":[[0,0],[9,0],[9,9]]}`,
		`{"kind":"noop"}`,
		`{"kind":"noop","params":{"set":"val"}}`,
		`{"kind":"noop","kind":"noop"}`,
		`{"kind":"noop","params":{"set":"a","Set":"b"}}`,
		`{"kind":"noop","params":null}`,
		`{"KİND":"noop"}`,
		`[{"a":1,"a":2}]`,
		`{"kind":"noop"} {"kind":"noop","kind":"noop"}`,
	} {
		f.Add(b)
	}
	h := bodyFixture(f).Handler()
	f.Fuzz(func(t *testing.T, body string) {
		for _, route := range []string{"/v1/query/dwell", "/jobs"} {
			code, resp := postBody(h, route, body)
			if code < 200 || code > 299 {
				continue
			}
			dec := json.NewDecoder(strings.NewReader(body))
			repeated, err := repeatedName(dec, 0)
			if err == errTooDeep {
				continue
			}
			if err == nil {
				if _, err = dec.Token(); err == io.EOF {
					err = nil
				} else if err == nil {
					err = errors.New("a second value")
				}
			}
			if err != nil || repeated != "" {
				t.Fatalf("POST %s %q = %d %s, but the body repeats %q or is not one value: %v", route, body, code, resp, repeated, err)
			}
		}
	})
}

var errTooDeep = errors.New("nested too deep to judge")

// repeatedName reads one JSON value from dec and returns a member name
// that some object in it gives twice (under strings.EqualFold), or "".
func repeatedName(dec *json.Decoder, depth int) (string, error) {
	if depth > 64 {
		return "", errTooDeep
	}
	t, err := dec.Token()
	if err != nil {
		return "", err
	}
	var names []string
	switch t {
	case json.Delim('{'):
		for dec.More() {
			k, err := dec.Token()
			if err != nil {
				return "", err
			}
			name := k.(string)
			for _, n := range names {
				if strings.EqualFold(n, name) {
					return name, nil
				}
			}
			names = append(names, name)
			if r, err := repeatedName(dec, depth+1); r != "" || err != nil {
				return r, err
			}
		}
	case json.Delim('['):
		for dec.More() {
			if r, err := repeatedName(dec, depth+1); r != "" || err != nil {
				return r, err
			}
		}
	default:
		return "", nil
	}
	_, err = dec.Token() // the closing delimiter
	return "", err
}
