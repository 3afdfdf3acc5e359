package serve

import (
	"fmt"
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

// jobParams reads one job's parameters against their bounds. The first
// failure sticks, so a runner reads every parameter and calls check once.
// An absent or empty parameter takes its default.
type jobParams struct {
	kind string
	m    map[string]string
	read []string
	err  error
}

func paramsOf(job *Job) *jobParams { return &jobParams{kind: job.kind, m: job.params} }

// get returns the parameter's text, and false when it is unset or an
// earlier parameter has already failed.
func (p *jobParams) get(key string) (string, bool) {
	p.read = append(p.read, key)
	s := p.m[key]
	return s, s != "" && p.err == nil
}

func (p *jobParams) fail(key, s string, why any) {
	p.err = fmt.Errorf("otifd: bad %s %q: %v", key, s, why)
}

// num reads a number in [lo, hi]; a NaN fails both comparisons.
func num[T int | float64 | time.Duration](p *jobParams, key string, def, lo, hi T, parse func(string) (T, error)) T {
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

func (p *jobParams) bool(key string) bool {
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
// the job kind does not read: a misspelled key must not be ignored.
func (p *jobParams) check() error {
	if p.err != nil {
		return p.err
	}
	var unknown []string
	for k := range p.m {
		if !slices.Contains(p.read, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("otifd: unknown %s job parameter %q", p.kind, unknown)
	}
	return nil
}
