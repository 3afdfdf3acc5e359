package obs

import (
	"context"
	"testing"
)

// TestRecordingZeroAlloc is the alloc regression gate for the
// instrumented frame path: every recording operation the pipeline calls
// per frame — counter increments, cost adds, gauge sets, histogram
// observations, a disabled StartSpan, and a nil progress emit — must
// allocate nothing. CI fails if any of these report > 0 allocs/op.
func TestRecordingZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc.counter")
	f := r.Cost("alloc.cost")
	g := r.Gauge("alloc.gauge")
	h := r.Histogram("alloc.hist", 1, 10, 100)
	SetRecorder(nil)
	ctx := context.Background()
	var nilProgress Progress

	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		f.Add(0.125)
		g.Set(1)
		h.Observe(12)
		_, sp := StartSpan(ctx, "detect.window")
		sp.End()
		nilProgress.Emit(Event{Kind: EventClip})
	}); allocs != 0 {
		t.Fatalf("instrumented hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSpanRecordingAllocGate is the alloc ceiling for the flight
// recorder's hot path, pinned so the recorder can stay always-on in
// otifd. Ending a span (the ring write) must not allocate at all; the
// whole start-attribute-end cycle is allowed only the fixed context
// plumbing of StartSpan (the span, the derived context, and the boxed
// parent id — 3 allocations), with one slot of headroom.
func TestSpanRecordingAllocGate(t *testing.T) {
	EnableTracing(1 << 10)
	defer SetRecorder(nil)
	ctx := context.Background()

	if allocs := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, "run.clip")
		sp.SetCamera("cam0").SetClip(3).SetStage("extract").SetErr(false)
		sp.End()
	}); allocs > 4 {
		t.Fatalf("span record with recorder enabled allocates %.1f allocs/op, want <= 4", allocs)
	}

	// The End path alone — what the ring write itself costs — must be
	// allocation-free: a pre-started span recycled across iterations ends
	// with zero allocations.
	_, sp := StartSpan(ctx, "run.clip")
	if allocs := testing.AllocsPerRun(1000, func() {
		sp.End()
	}); allocs != 0 {
		t.Fatalf("Span.End allocates %.1f allocs/op, want 0", allocs)
	}
}
