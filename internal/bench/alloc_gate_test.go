package bench

import (
	"testing"

	"otif/internal/parallel"
	"otif/internal/video"
)

// TestRunSetAllocGate pins the end-to-end cached extraction path's heap
// traffic. The PR-2 seed measured 10,756 allocs/op on the BENCH spec
// (8 clips x 8 s = 64 clip-seconds, ~168 allocs per clip-second); clip
// execution on a reused working set (detection arena, analysis and
// tracker scratch, no per-frame detections retained) must hold the rate
// to at most HALF that — and in practice sits near a quarter. The gate runs on this package's tiny suite and scales the
// bound by clip-seconds, so it needs no extra training.
//
// It also bounds the bytes a warm RunSet allocates per clip, which is what
// notices lost reuse of the clip working set (core's clipBuffers): with
// the working set kept across clips the tiny suite reads about 77 KB a
// clip, and with every clip building its own about 122-126 KB, while the
// allocation count stays far under its gate.
func TestRunSetAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarks one full RunSet repeatedly")
	}
	s := tinySuite(t)
	tr, err := s.System("caldot1")
	if err != nil {
		t.Fatal(err)
	}
	prev := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	video.SetCacheBudget(video.DefaultCacheBytes)
	defer video.SetCacheBudget(video.DefaultCacheBytes)

	cfg := tr.Sys.Best
	clips := tr.Sys.DS.Val
	tr.Sys.RunSet(cfg, clips) // warm the frame cache and the clip working set

	var sink float64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += tr.Sys.RunSet(cfg, clips).Runtime
		}
	})
	_ = sink

	// Half the seed's per-clip-second rate, on this suite's clip-seconds.
	clipSeconds := float64(s.Spec.Clips) * s.Spec.ClipSeconds
	limit := int64(10756.0 / 64.0 / 2.0 * clipSeconds)
	if got := r.AllocsPerOp(); got > limit {
		t.Errorf("cached RunSet allocates %d allocs/op, gate is %d (half the PR-2 seed rate over %.0f clip-seconds)",
			got, limit, clipSeconds)
	} else {
		t.Logf("cached RunSet: %d allocs/op (gate %d)", got, limit)
	}
	const bytesLimit = 96 << 10
	if got := r.AllocedBytesPerOp() / int64(len(clips)); got > bytesLimit {
		t.Errorf("cached RunSet allocates %d bytes a clip, gate is %d: is the clip working set reused across clips?",
			got, bytesLimit)
	} else {
		t.Logf("cached RunSet: %d bytes a clip (gate %d)", got, bytesLimit)
	}
}
