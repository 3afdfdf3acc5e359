package parallel

import "sync"

// Outcome reports how a Group.Do call obtained its value, so callers can
// keep hit/fill/dedup statistics without peeking inside the group.
type Outcome uint8

const (
	// DidRun means this caller executed fn and memoized its result.
	DidRun Outcome = iota
	// Waited means another caller was executing fn for the same key when
	// this call arrived; it blocked until that execution finished and
	// shares its result (the singleflight dedup path).
	Waited
	// Cached means the key's result was already memoized before this call
	// started; it returned without blocking.
	Cached
)

// Group is a memoizing singleflight: the first Do call for a key executes
// its function while concurrent callers for the same key wait and share
// the one result, and completed results stay memoized so later callers
// return immediately. It generalizes the per-dataset training memoization
// the bench suite grew in PR 1 (suite mutex guarding entry maps, one
// sync.Once per entry) into a reusable primitive; the bench suite and the
// segmented store's per-segment result cache both build on it.
//
// Unlike x/sync/singleflight, results (including errors) are retained
// until Forget — Group is a cache with request coalescing, not a purely
// transient dedup. Callers that must not memoize failures call Forget on
// error.
//
// The zero value is ready to use. Do never holds the group mutex while fn
// runs, so executions for different keys proceed in parallel.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

// flight is one key's execution record: done closes when fn returns, after
// which v and err are immutable.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// waitHook, when non-nil, runs each time a Do call commits to the Waited
// path, before it blocks. Tests use it to sequence deterministic dedup
// assertions; it is never set in production.
var waitHook func()

// SetWaitHookForTest installs (or, with nil, clears) the Waited-path hook.
// It exists solely so tests in other packages — the store's result cache
// in particular — can deterministically assert singleflight dedup; it must
// not be called from production code or from parallel tests.
func SetWaitHookForTest(fn func()) { waitHook = fn }

// Do returns the memoized result for key, executing fn to fill it if this
// is the key's first call. Concurrent calls for the same key block until
// the one running fn finishes and share its result. The Outcome reports
// which of the three paths answered. If fn panics the key is forgotten, so
// the next Do runs fn again; callers already waiting are released with the
// zero value.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (V, error, Outcome) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*flight[V])
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.v, f.err, Cached
		default:
			if waitHook != nil {
				waitHook()
			}
			<-f.done
			return f.v, f.err, Waited
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	// A fn that panics must not stay memoized: its flight holds the zero
	// value, which every later caller would take for the result. Drop the
	// key (unless a Forget already detached this flight) before releasing
	// the waiters; the panic then propagates to this caller.
	returned := false
	defer func() {
		if !returned {
			g.mu.Lock()
			if g.m[key] == f {
				delete(g.m, key)
			}
			g.mu.Unlock()
		}
		close(f.done)
	}()
	f.v, f.err = fn()
	returned = true
	return f.v, f.err, DidRun
}

// Forget drops the memoized result for key, so the next Do re-executes.
// Forgetting a key whose fn is still running detaches it: in-flight
// waiters still receive that execution's result, but new callers start a
// fresh one.
func (g *Group[K, V]) Forget(key K) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
}

// Len reports how many keys are memoized or in flight.
func (g *Group[K, V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
