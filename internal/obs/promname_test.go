package obs

import (
	"regexp"
	"testing"
)

// promNameRE is the Prometheus metric-name grammar.
var promNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

func TestPromName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"run.clips", "run_clips"},
		{"cost.decode", "cost_decode"},
		{"cache.hit_rate", "cache_hit_rate"},
		{"a/b-c d", "a_b_c_d"},
		{"already_valid:name", "already_valid:name"},
		{"9lead", "_9lead"},
		{"", "_"},
		{"UPPER.Case", "UPPER_Case"},
	}
	for _, c := range cases {
		got := PromName(c.in)
		if got != c.want {
			t.Errorf("PromName(%q) = %q, want %q", c.in, got, c.want)
		}
		if !promNameRE.MatchString(got) {
			t.Errorf("PromName(%q) = %q is not a valid Prometheus name", c.in, got)
		}
	}
}

// PromName must be idempotent: exporting an already-normalized name
// (e.g. a name round-tripped through a scrape) cannot change it.
func TestPromNameIdempotent(t *testing.T) {
	for _, n := range []string{"run.clips", "cost.decode", "9x", "a/b", ""} {
		once := PromName(n)
		if twice := PromName(once); twice != once {
			t.Errorf("PromName not idempotent on %q: %q then %q", n, once, twice)
		}
	}
}
