package bench

import (
	"io"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/parallel"
	"otif/internal/tuner"
)

// Table4Row is one ablation variant's runtime on one dataset.
type Table4Row struct {
	Variant string
	Runtime map[string]float64 // dataset -> scaled runtime
}

// Table4Datasets are the ablation datasets (Caldot1 and Warsaw, §4.4).
var Table4Datasets = []string{"caldot1", "warsaw"}

// Table4 regenerates the ablation study: four successively more complete
// OTIF variants, each tuned with the module subsets of §4.4, reporting the
// runtime of the fastest configuration within Table2Tol of the best
// accuracy achieved by any variant on that dataset.
func (s *Suite) Table4(w io.Writer, datasets []string) ([]Table4Row, error) {
	if len(datasets) == 0 {
		datasets = Table4Datasets
	}
	variants := []string{"Detector Only", "+ Sampling Rate", "+ Recurrent Tracker", "+ Segmentation Proxy Model"}
	// The first three variants are tuned here, one module mask each. The
	// last is the full system: the suite's own curve, tuned with
	// DefaultOptions when the system was trained and evaluated on the test
	// set once.
	ablations := []tuner.Options{
		{UseDetection: true, Tracker: core.TrackerSORT},
		{UseDetection: true, UseTracking: true, Tracker: core.TrackerSORT},
		{UseDetection: true, UseTracking: true, Tracker: core.TrackerRecurrent},
	}

	rows := make([]Table4Row, len(variants))
	for i, v := range variants {
		rows[i] = Table4Row{Variant: v, Runtime: map[string]float64{}}
	}
	scale := s.EquivScale()

	// Datasets fan out on the worker pool (each owns a distinct trained
	// system); variants stay serial within a dataset because they share
	// that system's tuning accountant. Row maps are filled serially below,
	// in dataset order.
	type dsResult struct {
		runtimes []float64 // per variant, already scaled
		err      error
	}
	perDS := parallel.Map(len(datasets), func(di int) dsResult {
		name := datasets[di]
		t, err := s.System(name)
		if err != nil {
			return dsResult{err: err}
		}
		// Tune each ablation on validation, evaluate its curve on test.
		curves := make([][]tuner.Point, len(ablations), len(variants))
		for i, opts := range ablations {
			for _, p := range tuner.Tune(t.Sys, t.Metric, opts) {
				curves[i] = append(curves[i], tuner.Evaluate(t.Sys, p.Cfg, t.Sys.DS.Test, t.Metric))
			}
		}
		full, err := s.testPointsOTIF(name)
		if err != nil {
			return dsResult{err: err}
		}
		curves = append(curves, full.Points)
		floor := tuner.BestAccuracy(curves...) - Table2Tol
		out := dsResult{runtimes: make([]float64, len(variants))}
		for i, pts := range curves {
			pick, ok := tuner.FastestAtLeast(pts, floor)
			if !ok {
				// No configuration of this variant reaches the accuracy
				// band; report its most accurate configuration's runtime.
				pick = tuner.Point{Accuracy: -1}
				for _, p := range pts {
					if p.Accuracy > pick.Accuracy {
						pick = p
					}
				}
			}
			out.runtimes[i] = pick.Runtime * scale
		}
		return out
	})
	for di, name := range datasets {
		if perDS[di].err != nil {
			return nil, perDS[di].err
		}
		for i := range variants {
			rows[i].Runtime[name] = perDS[di].runtimes[i]
		}
	}

	fprintf(w, "Table 4: ablation study, runtime (s, scaled) at accuracy within %.0f%% of best.\n\n", Table2Tol*100)
	fprintf(w, "%-28s", "Method")
	for _, d := range datasets {
		fprintf(w, " %10s", d)
	}
	fprintf(w, "\n")
	for _, row := range rows {
		fprintf(w, "%-28s", row.Variant)
		for _, d := range datasets {
			fprintf(w, " %10.0f", row.Runtime[d])
		}
		fprintf(w, "\n")
	}
	return rows, nil
}

// Figure6Result is the cost breakdown of Figure 6.
type Figure6Result struct {
	Preprocessing map[string]float64 // component -> seconds
	Execution     map[string]float64 // component -> seconds (scaled)
}

// Figure6 regenerates the Caldot1 cost breakdown: pre-processing costs
// (model training, window selection, tuning) and execution costs (decode,
// proxy, detect, track) of the fastest configuration within the band.
func (s *Suite) Figure6(w io.Writer, name string) (*Figure6Result, error) {
	if name == "" {
		name = "caldot1"
	}
	t, err := s.System(name)
	if err != nil {
		return nil, err
	}
	out := &Figure6Result{Preprocessing: map[string]float64{}, Execution: map[string]float64{}}
	for op, v := range t.Pre {
		out.Preprocessing[string(op)] = v
	}
	pt, ok := tuner.FastestWithin(t.Curve, 0.05)
	if !ok {
		return nil, nil
	}
	res := t.Sys.RunSet(pt.Cfg, t.Sys.DS.Test)
	scale := s.EquivScale()
	for op, v := range res.Breakdown {
		out.Execution[string(op)] = v * scale
	}

	fprintf(w, "Figure 6: OTIF cost breakdown on %s.\n\nPre-processing:\n", name)
	for _, op := range []costmodel.Op{costmodel.OpTrainDet, costmodel.OpTrainProx, costmodel.OpTrainTrkr, costmodel.OpTune, costmodel.OpRefine} {
		if v, okOp := out.Preprocessing[string(op)]; okOp {
			fprintf(w, "  %-16s %8.0f s\n", op, v)
		}
	}
	fprintf(w, "Execution (config %v, scaled to 1-hour set):\n", pt.Cfg)
	for _, op := range []costmodel.Op{costmodel.OpDecode, costmodel.OpProxy, costmodel.OpDetect, costmodel.OpTrack} {
		if v, okOp := out.Execution[string(op)]; okOp {
			fprintf(w, "  %-16s %8.1f s\n", op, v)
		}
	}
	return out, nil
}
