package otif_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"otif"
	"otif/internal/obs"
)

// ctxPipe is a small trained pipeline with a swappable progress hook,
// shared by the cancellation tests. The hook indirection lets each test
// install its own cancel trigger without retraining.
var (
	ctxPipe *otif.Pipeline
	ctxHook atomic.Pointer[otif.ProgressFunc]
)

func ctxPipeline(t *testing.T) *otif.Pipeline {
	t.Helper()
	if ctxPipe != nil {
		return ctxPipe
	}
	hook := otif.ProgressFunc(func(e obs.Event) {
		if fn := ctxHook.Load(); fn != nil {
			(*fn)(e)
		}
	})
	pipe, err := otif.Open("caldot1", otif.Options{ClipsPerSet: 2, ClipSeconds: 2, Progress: hook})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Train()
	ctxPipe = pipe
	return ctxPipe
}

// setHook installs fn as the progress hook and removes it at test end.
func setHook(t *testing.T, fn otif.ProgressFunc) {
	t.Helper()
	ctxHook.Store(&fn)
	t.Cleanup(func() { ctxHook.Store(nil) })
}

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

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	setHook(t, func(e obs.Event) {
		if e.Kind == otif.EventClip {
			cancel()
		}
	})
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

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	setHook(t, func(e obs.Event) {
		if e.Kind == otif.EventClip {
			cancel()
		}
	})
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

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	setHook(t, func(e obs.Event) {
		if e.Kind == otif.EventTuneIter && e.Iteration == 1 {
			cancel()
		}
	})
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
	setHook(t, func(e obs.Event) {
		if e.Kind == otif.EventClip {
			clips.Add(1)
		}
	})
	if _, err := pipe.Extract(context.Background(), pipe.System().Best, otif.Test); err != nil {
		t.Fatal(err)
	}
	if got := clips.Load(); got != 2 {
		t.Errorf("clip events = %d, want 2 (one per test clip)", got)
	}
}
