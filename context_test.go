package otif_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otif"
	"otif/internal/obs"
)

// ctxPipe is a small trained pipeline shared by the cancellation tests.
// Each test puts its own progress (and cancel trigger) in the context of
// the call it makes.
var ctxPipe *otif.Pipeline

func ctxPipeline(t *testing.T) *otif.Pipeline {
	t.Helper()
	if ctxPipe != nil {
		return ctxPipe
	}
	pipe, err := otif.Open("caldot1", otif.Options{ClipsPerSet: 2, ClipSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Train()
	ctxPipe = pipe
	return ctxPipe
}

// cancelOn returns a context canceled by the first event for which
// trigger holds, and its cancel function.
func cancelOn(trigger func(obs.Event) bool) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	return otif.WithProgress(ctx, func(e obs.Event) {
		if trigger(e) {
			cancel()
		}
	}), cancel
}

func isClip(e obs.Event) bool { return e.Kind == otif.EventClip }

func TestExtractContextPreCanceled(t *testing.T) {
	pipe := ctxPipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := pipe.Extract(ctx, pipe.System().Best, otif.Test)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var pe *otif.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *otif.PartialError", err)
	}
	if pe.Stage != "extract" || pe.Done != 0 {
		t.Errorf("partial = %+v, want stage extract, 0 done", pe)
	}
}

func TestExtractContextCancelMidRun(t *testing.T) {
	pipe := ctxPipeline(t)
	otif.SetParallelism(1)
	defer otif.SetParallelism(0)

	ctx, cancel := cancelOn(isClip)
	defer cancel()
	_, err := pipe.Extract(ctx, pipe.System().Best, otif.Test)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var pe *otif.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *otif.PartialError", err)
	}
	// Serial execution cancels after the first clip event: exactly one of
	// the two test clips completed.
	if pe.Done != 1 || pe.Total != 2 {
		t.Errorf("partial progress = %d/%d, want 1/2", pe.Done, pe.Total)
	}
}

func TestExtractContextDrainsWorkers(t *testing.T) {
	pipe := ctxPipeline(t)
	otif.SetParallelism(4)
	defer otif.SetParallelism(0)
	before := runtime.NumGoroutine()

	ctx, cancel := cancelOn(isClip)
	defer cancel()
	if _, err := pipe.Extract(ctx, pipe.System().Best, otif.Test); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The worker pool must drain: no goroutines may outlive the call.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines after canceled extract = %d, want <= %d (worker leak)", got, before)
	}
}

func TestTuneContextCancelMidRun(t *testing.T) {
	pipe := ctxPipeline(t)
	otif.SetParallelism(1)
	defer otif.SetParallelism(0)

	ctx, cancel := cancelOn(func(e obs.Event) bool { return e.Kind == otif.EventTuneIter && e.Iteration == 1 })
	defer cancel()
	curve, err := pipe.Tune(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var pe *otif.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *otif.PartialError", err)
	}
	if pe.Stage != "tune" {
		t.Errorf("stage = %q, want tune", pe.Stage)
	}
	// The cancel fires inside iteration 1; that iteration still completes
	// (cooperative cancellation at iteration boundaries), so the curve
	// holds theta_best plus the first two iterations' picks.
	if pe.Done < 1 || len(curve) < 2 {
		t.Errorf("done = %d, curve = %d points; want partial progress", pe.Done, len(curve))
	}
}

// TestTuneReportsTuneEventsOnly: the progress in Tune's context hears the
// tuner's events, and none of the clip events of the validation runs
// behind them.
func TestTuneReportsTuneEventsOnly(t *testing.T) {
	pipe := ctxPipeline(t)
	var mu sync.Mutex
	kinds := map[otif.EventKind]int{}
	ctx := otif.WithProgress(context.Background(), func(e obs.Event) {
		mu.Lock()
		kinds[e.Kind]++
		mu.Unlock()
	})
	if _, err := pipe.Tune(ctx); err != nil {
		t.Fatal(err)
	}
	if kinds[otif.EventTuneIter] == 0 || kinds[otif.EventCandidate] == 0 || kinds[otif.EventCacheSnapshot] != 1 {
		t.Errorf("Tune reported %v, want tune iterations, candidates and one cache snapshot", kinds)
	}
	for k := range kinds {
		if !strings.HasPrefix(string(k), "tune.") && k != otif.EventCacheSnapshot {
			t.Errorf("Tune reported %d %q events, want tune.* events only", kinds[k], k)
		}
	}
}

func TestTuneContextPreCanceledAfterTrain(t *testing.T) {
	pipe := ctxPipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pipe.Tune(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProgressEventsDelivered(t *testing.T) {
	pipe := ctxPipeline(t)
	var clips atomic.Int64
	ctx := otif.WithProgress(context.Background(), func(e obs.Event) {
		if e.Kind == otif.EventClip {
			clips.Add(1)
		}
	})
	if _, err := pipe.Extract(ctx, pipe.System().Best, otif.Test); err != nil {
		t.Fatal(err)
	}
	if got := clips.Load(); got != 2 {
		t.Errorf("clip events = %d, want 2 (one per test clip)", got)
	}
}

// TestConcurrentExtractsReportToTheirOwnContext runs two extractions at
// once on one pipeline, each with its own progress in its context. Each
// call's first clip event waits for the other's, so the two runs overlap;
// each must then see exactly one event per test clip, and only its own.
func TestConcurrentExtractsReportToTheirOwnContext(t *testing.T) {
	pipe := ctxPipeline(t)
	otif.SetParallelism(2)
	defer otif.SetParallelism(0)
	want := pipe.System().DS.Test

	const calls = 2
	var started [calls]chan struct{}
	for i := range started {
		started[i] = make(chan struct{})
	}
	var (
		wg       sync.WaitGroup
		events   [calls][]obs.Event
		overlaps [calls]bool
		errs     [calls]error
	)
	for c := 0; c < calls; c++ {
		var mu sync.Mutex
		var once sync.Once
		other := started[1-c]
		ctx := otif.WithProgress(context.Background(), func(e obs.Event) {
			mu.Lock()
			events[c] = append(events[c], e)
			mu.Unlock()
			once.Do(func() {
				close(started[c])
				select {
				case <-other:
					overlaps[c] = true
				case <-time.After(10 * time.Second):
				}
			})
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[c] = pipe.Extract(ctx, pipe.System().Best, otif.Test)
		}()
	}
	wg.Wait()
	for c := 0; c < calls; c++ {
		if errs[c] != nil {
			t.Fatalf("call %d: %v", c, errs[c])
		}
		if !overlaps[c] {
			t.Errorf("call %d finished its first clip and the other call never reported one within 10 s", c)
		}
		seen := map[int]bool{}
		for _, e := range events[c] {
			if e.Kind != otif.EventClip || e.Total != len(want) || seen[e.Index] {
				t.Errorf("call %d: unexpected event %+v", c, e)
			}
			seen[e.Index] = true
		}
		if len(events[c]) != len(want) {
			t.Errorf("call %d: %d events, want %d: one EventClip per test clip and none of the other call's", c, len(events[c]), len(want))
		}
	}
}
