package serve

import (
	"fmt"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"time"
)

// Bounds on the stream job's parameters. Parameters arrive over the socket,
// and two of these size an allocation: cameras a slice of feeds, queue a
// channel, which panic past what make accepts.
const (
	maxStreamCameras = 64
	maxStreamQueue   = 1024
	// maxClipSeconds bounds a streamed clip, which is rendered whole before
	// it is extracted.
	maxClipSeconds = 600
)

// params reads the parameters of one job or one query request against
// their bounds; it is the only reader of either. The first failure sticks,
// so a reader reads every parameter it takes and calls check once. An
// absent or empty parameter takes its default.
type params struct {
	what string // "extract job", "limit query", … for error messages
	v    url.Values
	read []string
	err  error
}

// jobParams reads a job's parameters.
func jobParams(job *Job) *params {
	v := make(url.Values, len(job.params))
	for k, s := range job.params {
		v[k] = []string{s}
	}
	return &params{what: job.kind + " job", v: v}
}

// get returns the parameter's text, and false when it is unset or an
// earlier parameter has already failed.
func (p *params) get(key string) (string, bool) {
	p.read = append(p.read, key)
	s := p.v.Get(key)
	return s, s != "" && p.err == nil
}

// str reads a parameter that any text is valid for.
func (p *params) str(key string) string {
	s, _ := p.get(key)
	return s
}

func (p *params) fail(key, s string, why any) {
	p.err = fmt.Errorf("otifd: bad %s %q: %v", key, s, why)
}

// num reads a number in [lo, hi]; a NaN fails both comparisons.
func num[T int | float64 | time.Duration](p *params, key string, def, lo, hi T, parse func(string) (T, error)) T {
	s, ok := p.get(key)
	if !ok {
		return def
	}
	v, err := parse(s)
	switch {
	case err != nil:
		p.fail(key, s, err)
	case !(v >= lo && v <= hi):
		p.fail(key, s, fmt.Sprintf("want %v to %v", lo, hi))
	}
	return v
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func (p *params) bool(key string) bool {
	s, ok := p.get(key)
	if !ok {
		return false
	}
	b, err := strconv.ParseBool(s)
	if err != nil {
		p.fail(key, s, err)
	}
	return b
}

// check returns the first failure, or else an error naming the parameters
// that were not read or were given more than once: a misspelled key must
// not be ignored, and a repeated one must not be half read.
func (p *params) check() error {
	if p.err != nil {
		return p.err
	}
	var unknown, twice []string
	for k, vs := range p.v {
		switch {
		case !slices.Contains(p.read, k):
			unknown = append(unknown, k)
		case len(vs) > 1:
			twice = append(twice, k)
		}
	}
	switch {
	case len(unknown) > 0:
		sort.Strings(unknown)
		return fmt.Errorf("otifd: unknown %s parameter %q", p.what, unknown)
	case len(twice) > 0:
		sort.Strings(twice)
		return fmt.Errorf("otifd: %s parameter %q given more than once", p.what, twice)
	}
	return nil
}
