package otif

import (
	"context"
	"fmt"

	"otif/internal/core"
	"otif/internal/dataset"
	"otif/internal/parallel"
	"otif/internal/query"
	"otif/internal/store"
	"otif/internal/tuner"
)

// SetParallelism fixes the worker count used by clip execution, tuning and
// the benchmark harness. n <= 0 restores the default (GOMAXPROCS). Results
// are bit-for-bit identical at any worker count; SetParallelism(1) forces
// the serial reference path.
func SetParallelism(n int) { parallel.SetWorkers(n) }

// SetName selects one of a pipeline's clip sets.
type SetName string

// The three clip sets sampled from a dataset (§3.1 of the paper).
const (
	Train      SetName = "train"
	Validation SetName = "val"
	Test       SetName = "test"
)

// Options configures Open.
type Options struct {
	// ClipsPerSet and ClipSeconds control the sampled set sizes. Zero
	// values use the library defaults (a scaled-down benchmark size; the
	// paper uses 60 one-minute clips per set).
	ClipsPerSet int
	ClipSeconds float64
	// Seed drives all dataset sampling and model initialization.
	Seed int64
	// Progress, when set, receives tuning, extraction and ingest events.
	Progress ProgressFunc
}

// Config is a pipeline parameter configuration theta.
type Config = core.Config

// Point is one point of a speed-accuracy curve: a configuration with its
// validation runtime (simulated seconds) and accuracy.
type Point = tuner.Point

// Pipeline is an OTIF instance bound to one video dataset: it owns the
// trained models and exposes tuning, extraction and querying.
type Pipeline struct {
	sys      *core.System
	metric   core.Metric
	curve    []Point
	progress ProgressFunc
}

// Open samples the named dataset (one of Datasets()) and estimates the
// detector background model. Call Train before Tune or Extract.
func Open(name string, opts Options) (*Pipeline, error) {
	spec := dataset.DefaultSpec
	if opts.ClipsPerSet > 0 {
		spec.Clips = opts.ClipsPerSet
	}
	if opts.ClipSeconds > 0 {
		spec.ClipSeconds = opts.ClipSeconds
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 7
	}
	ds, err := dataset.Build(name, spec, seed)
	if err != nil {
		return nil, err
	}
	sys := core.NewSystem(ds)
	sys.Progress = opts.Progress
	return &Pipeline{
		sys:      sys,
		metric:   core.MetricFor(ds),
		progress: opts.Progress,
	}, nil
}

// Datasets lists the seven supported datasets.
func Datasets() []string { return dataset.Names() }

// Train selects the best-accuracy configuration theta_best on the
// validation set and trains every learned component: the five segmentation
// proxy models, the window-size set, the recurrent and pairwise tracking
// models, and the endpoint refiner.
func (p *Pipeline) Train() Config {
	best, _ := tuner.SelectBest(p.sys, p.metric)
	p.sys.FinishTraining(best, 42)
	return best
}

// Tune runs the greedy joint parameter tuner (§3.5) and returns the
// speed-accuracy curve, slowest configuration first. It returns
// ErrNotTrained if Train (or LoadModels) has not run. The tuner checks ctx
// at iteration boundaries; a canceled run returns a *PartialError wrapping
// ctx.Err() together with the curve points completed so far.
func (p *Pipeline) Tune(ctx context.Context) ([]Point, error) {
	if p.sys.Recurrent == nil {
		return nil, ErrNotTrained
	}
	opts := tuner.DefaultOptions()
	opts.Progress = p.progress
	curve, err := tuner.TuneContext(ctx, p.sys, p.metric, opts)
	p.curve = curve
	return curve, err
}

// Curve returns the most recent tuning curve (nil before Tune).
func (p *Pipeline) Curve() []Point { return p.curve }

// PickFastestWithin returns the fastest point of the curve whose accuracy
// is within tol of the best accuracy on the curve (the paper's Table 2
// selection rule with tol = 0.05). It returns ErrEmptyCurve when the curve
// has no points.
func PickFastestWithin(curve []Point, tol float64) (Point, error) {
	p, ok := tuner.FastestWithin(curve, tol)
	if !ok {
		return Point{}, ErrEmptyCurve
	}
	return p, nil
}

// Extract runs the pipeline under cfg over the chosen clip set and returns
// the extracted tracks together with the simulated execution cost. The
// tracks are indexed as the sealed segments ExportSegments writes, cut
// every store.DefaultSealClips clips and answered through a result cache,
// so the set and its reload by LoadTrackSets have one manifest and one
// code path. Clip
// workers check ctx before starting each clip and the pool drains cleanly;
// a canceled extraction returns a *PartialError wrapping ctx.Err() that
// reports how many clips completed.
func (p *Pipeline) Extract(ctx context.Context, cfg Config, set SetName) (*TrackSet, error) {
	clips, err := p.clips(set)
	if err != nil {
		return nil, err
	}
	res, err := p.sys.RunSetContext(ctx, cfg, clips)
	if err != nil {
		return nil, err
	}
	qctx := p.sys.Ctx()
	sh, err := store.NewSharded(p.sys.DS.Name, qctx, store.SplitSegments(res.PerClip, qctx, store.DefaultSealClips), store.NewCache())
	if err != nil {
		return nil, err
	}
	return &TrackSet{Querier: sh, Runtime: res.Runtime}, nil
}

// Accuracy scores a TrackSet extracted from the given set against ground
// truth using the dataset's evaluation metric.
func (p *Pipeline) Accuracy(ts *TrackSet, set SetName) (float64, error) {
	clips, err := p.clips(set)
	if err != nil {
		return 0, err
	}
	if len(clips) != ts.Clips() {
		return 0, fmt.Errorf("otif: track set has %d clips, %s set has %d", ts.Clips(), set, len(clips))
	}
	return p.metric.Accuracy(ts.perClip(), clips), nil
}

// Movements returns the dataset's labeled spatial movements (for path
// breakdown queries); nil for datasets evaluated with track counts.
func (p *Pipeline) Movements() []query.Movement {
	return core.MovementsFor(p.sys.DS)
}

// System exposes the underlying trained system for advanced use (the
// benchmark harness and examples that need module-level access).
func (p *Pipeline) System() *core.System { return p.sys }

// Metric exposes the dataset's evaluation metric.
func (p *Pipeline) Metric() core.Metric { return p.metric }

func (p *Pipeline) clips(set SetName) ([]*dataset.ClipTruth, error) {
	switch set {
	case Train:
		return p.sys.DS.Train, nil
	case Validation:
		return p.sys.DS.Val, nil
	case Test:
		return p.sys.DS.Test, nil
	default:
		return nil, fmt.Errorf("otif: unknown set %q", set)
	}
}
