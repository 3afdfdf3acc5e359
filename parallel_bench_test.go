package otif_test

// Benchmarks for the parallel execution layer: the same workload measured
// serially (one worker) and on the full worker pool. Because results are
// bit-for-bit identical at any worker count (see DESIGN.md "Parallel
// execution"), the wall-clock ratio is pure speedup. The `speedup-x`
// metric compares against a serial run timed once per benchmark.

import (
	"io"
	"runtime"
	"testing"
	"time"

	"otif/internal/bench"
	"otif/internal/core"
	"otif/internal/dataset"
	"otif/internal/parallel"
	"otif/internal/tuner"
)

// extractionSystem trains one system for the RunSet benchmarks.
var extractionSys *core.System

func benchSystem(b *testing.B) *core.System {
	b.Helper()
	if extractionSys == nil {
		ds, err := dataset.Build("caldot1", dataset.SetSpec{Clips: 8, ClipSeconds: 6}, 7)
		if err != nil {
			b.Fatal(err)
		}
		sys := core.NewSystem(ds)
		metric := core.MetricFor(ds)
		best, _ := tuner.SelectBest(sys, metric)
		sys.FinishTraining(best, 42)
		extractionSys = sys
	}
	return extractionSys
}

// BenchmarkRunSetSerial is the one-worker reference for BenchmarkRunSetParallel.
func BenchmarkRunSetSerial(b *testing.B) {
	sys := benchSystem(b)
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RunSet(sys.Best, sys.DS.Val)
	}
}

// BenchmarkRunSetParallel runs the identical workload on the full pool and
// reports the measured speedup over a serial reference run.
func BenchmarkRunSetParallel(b *testing.B) {
	sys := benchSystem(b)

	parallel.SetWorkers(1)
	start := time.Now()
	serialRes := sys.RunSet(sys.Best, sys.DS.Val)
	serialWall := time.Since(start)

	parallel.SetWorkers(0) // GOMAXPROCS
	defer parallel.SetWorkers(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sys.RunSet(sys.Best, sys.DS.Val)
		if res.Runtime != serialRes.Runtime {
			b.Fatalf("parallel runtime %v != serial %v", res.Runtime, serialRes.Runtime)
		}
	}
	b.StopTimer()
	parWall := b.Elapsed() / time.Duration(b.N)
	if parWall > 0 {
		b.ReportMetric(float64(serialWall)/float64(parWall), "speedup-x")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkSuiteParallel trains a fresh two-dataset suite end to end
// (train, tune, Table 2 curves) on the full pool, reporting speedup over a
// one-worker reference measured once.
func BenchmarkSuiteParallel(b *testing.B) {
	spec := dataset.SetSpec{Clips: 3, ClipSeconds: 5}
	datasets := []string{"caldot1", "warsaw"}
	run := func() {
		s := bench.NewSuite(spec, 7)
		if _, err := s.Table2(io.Discard, datasets); err != nil {
			b.Fatal(err)
		}
	}

	parallel.SetWorkers(1)
	start := time.Now()
	run()
	serialWall := time.Since(start)

	parallel.SetWorkers(0)
	defer parallel.SetWorkers(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	parWall := b.Elapsed() / time.Duration(b.N)
	if parWall > 0 {
		b.ReportMetric(float64(serialWall)/float64(parWall), "speedup-x")
	}
}

// BenchmarkPipelineExtractParallel measures the public API path: track
// extraction over the test set with the default worker pool.
func BenchmarkPipelineExtractParallel(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RunSet(sys.Best, sys.DS.Test)
	}
}
