package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGroupMemoizes pins the cache contract: one execution per key, later
// calls answer from memory with Outcome Cached.
func TestGroupMemoizes(t *testing.T) {
	var g Group[string, int]
	var calls atomic.Int64
	fill := func() (int, error) {
		calls.Add(1)
		return 42, nil
	}
	v, err, out := g.Do("k", fill)
	if v != 42 || err != nil || out != DidRun {
		t.Fatalf("first Do = (%d, %v, %v), want (42, nil, DidRun)", v, err, out)
	}
	v, err, out = g.Do("k", fill)
	if v != 42 || err != nil || out != Cached {
		t.Fatalf("second Do = (%d, %v, %v), want (42, nil, Cached)", v, err, out)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

// TestGroupDedupsInFlight is the deterministic singleflight test: a primary
// caller blocks inside fn, further callers for the same key arrive while it
// runs, and every one of them must take the Waited path and share the
// primary's result — fn runs exactly once. waitHook sequences the test so
// there is no timing window: the primary's fn is not released until every
// waiter has committed to the Waited path.
func TestGroupDedupsInFlight(t *testing.T) {
	const waiters = 8
	var g Group[string, int]
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	waiting := make(chan struct{}, waiters)
	waitHook = func() { waiting <- struct{}{} }
	defer func() { waitHook = nil }()

	primaryDone := make(chan struct{})
	go func() {
		defer close(primaryDone)
		v, _, out := g.Do("hot", func() (int, error) {
			calls.Add(1)
			close(entered)
			<-release
			return 7, nil
		})
		if v != 7 || out != DidRun {
			t.Errorf("primary Do = (%d, %v), want (7, DidRun)", v, out)
		}
	}()
	<-entered // fn is running; done stays open until release closes

	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, out := g.Do("hot", func() (int, error) {
				t.Error("waiter executed fn; singleflight broken")
				return -1, nil
			})
			if v != 7 {
				t.Errorf("waiter %d got %d, want 7", i, v)
			}
			outcomes[i] = out
		}(i)
	}
	// Release the primary only once every waiter has committed to the
	// Waited path (signaled through waitHook), so each outcome below is
	// deterministic rather than a race against fn finishing.
	for i := 0; i < waiters; i++ {
		<-waiting
	}
	close(release)
	<-primaryDone
	wg.Wait()

	for i, out := range outcomes {
		if out != Waited {
			t.Errorf("waiter %d outcome = %v, want Waited", i, out)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times under contention, want 1", n)
	}
}

// TestGroupMemoizesErrors: errors are retained like values (the bench
// suite's contract), and Forget clears them for a retry.
func TestGroupMemoizesErrors(t *testing.T) {
	var g Group[int, string]
	boom := errors.New("boom")
	calls := 0
	fill := func() (string, error) {
		calls++
		if calls == 1 {
			return "", boom
		}
		return "ok", nil
	}
	if _, err, _ := g.Do(1, fill); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	if _, err, out := g.Do(1, fill); !errors.Is(err, boom) || out != Cached {
		t.Fatalf("memoized err Do = (%v, %v), want (boom, Cached)", err, out)
	}
	g.Forget(1)
	if v, err, out := g.Do(1, fill); v != "ok" || err != nil || out != DidRun {
		t.Fatalf("post-Forget Do = (%q, %v, %v), want (ok, nil, DidRun)", v, err, out)
	}
	if calls != 2 {
		t.Fatalf("fill ran %d times, want 2", calls)
	}
}

// TestGroupForgetsPanickedFill: a fill that panics propagates to its
// caller and leaves nothing memoized, so the next Do for the key runs fn
// again instead of returning the dead flight's zero value.
func TestGroupForgetsPanickedFill(t *testing.T) {
	var g Group[int, string]
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the fill's panic", r)
			}
		}()
		g.Do(1, func() (string, error) { panic("boom") })
	}()
	if g.Len() != 0 {
		t.Fatalf("Len = %d after a panicked fill, want 0", g.Len())
	}
	if v, err, out := g.Do(1, func() (string, error) { return "ok", nil }); v != "ok" || err != nil || out != DidRun {
		t.Fatalf("Do after a panicked fill = (%q, %v, %v), want (ok, nil, DidRun)", v, err, out)
	}
}

// TestGroupConcurrentKeys hammers many goroutines over a small key space
// under -race: each key's fill runs exactly once and every caller sees its
// key's value.
func TestGroupConcurrentKeys(t *testing.T) {
	var g Group[int, int]
	const keys = 5
	var fills [keys]atomic.Int64
	var wg sync.WaitGroup
	for gr := 0; gr < 16; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (gr + i) % keys
				v, err, _ := g.Do(k, func() (int, error) {
					fills[k].Add(1)
					return k * 10, nil
				})
				if err != nil || v != k*10 {
					t.Errorf("Do(%d) = (%d, %v), want (%d, nil)", k, v, err, k*10)
					return
				}
			}
		}(gr)
	}
	wg.Wait()
	for k := range fills {
		if n := fills[k].Load(); n != 1 {
			t.Errorf("key %d filled %d times, want 1", k, n)
		}
	}
	if g.Len() != keys {
		t.Errorf("Len = %d, want %d", g.Len(), keys)
	}
}
