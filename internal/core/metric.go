package core

import (
	"otif/internal/dataset"
	"otif/internal/geom"
	"otif/internal/metrics"
	"otif/internal/query"
	"otif/internal/vidsim"
)

// Metric evaluates the accuracy of per-clip extracted tracks against clip
// ground truth; it is the user-provided evaluation metric of the workflow
// in §3.1 (here computed from the simulator's oracle ground truth).
type Metric interface {
	// Accuracy returns the mean accuracy in [0, 1] of the per-clip track
	// sets against the corresponding clips' ground truth.
	Accuracy(perClip [][]*query.Track, clips []*dataset.ClipTruth) float64
	// Name identifies the metric in reports.
	Name() string
}

// TrackCountMetric scores the track count query of §4.1: the number of
// unique objects of a category per clip, compared with ground truth by
// count accuracy, averaged over clips.
type TrackCountMetric struct {
	Category string
}

// Name implements Metric.
func (m TrackCountMetric) Name() string { return "track-count" }

// Accuracy implements Metric.
func (m TrackCountMetric) Accuracy(perClip [][]*query.Track, clips []*dataset.ClipTruth) float64 {
	var preds, truths []float64
	for i, tracks := range perClip {
		preds = append(preds, float64(query.CountTracks(tracks, m.Category)))
		truths = append(truths, float64(trueUniqueCount(clips[i], m.Category)))
	}
	return metrics.MeanCountAccuracy(preds, truths)
}

// trueUniqueCount counts the unique objects of a category ever visible in
// the clip's ground truth.
func trueUniqueCount(ct *dataset.ClipTruth, cat string) int {
	n := 0
	for _, p := range ct.World.Paths() {
		if cat == "" || string(p.Cat) == cat {
			n++
		}
	}
	return n
}

// PathBreakdownMetric scores the path breakdown (turning movement count)
// query of §4.1: per clip, the count of category tracks following each
// movement, compared movement-by-movement by count accuracy and averaged
// over clips and movements.
type PathBreakdownMetric struct {
	Category  string
	Movements []query.Movement
	// MaxEndpointDist is the endpoint tolerance for assigning a track to
	// a movement.
	MaxEndpointDist float64
}

// Name implements Metric.
func (m PathBreakdownMetric) Name() string { return "path-breakdown" }

// Accuracy implements Metric.
func (m PathBreakdownMetric) Accuracy(perClip [][]*query.Track, clips []*dataset.ClipTruth) float64 {
	var preds, truths []float64
	for i, tracks := range perClip {
		pred := query.PathBreakdown(tracks, m.Category, m.Movements, m.MaxEndpointDist)
		truth := m.trueMovementCounts(clips[i], m.Category)
		for _, mv := range m.Movements {
			preds = append(preds, float64(pred[mv.Name]))
			truths = append(truths, float64(truth[mv.Name]))
		}
	}
	return metrics.MeanCountAccuracy(preds, truths)
}

// trueMovementCounts counts, per movement name, the category objects whose
// ground-truth trajectory within the clip follows that movement, using the
// same path classifier as the prediction side. Objects truncated by the
// clip boundary (visible only for a fragment of the movement) match no
// movement on either side, so the query semantics — "count objects that
// traveled movement X within this clip" — are consistent.
func (m PathBreakdownMetric) trueMovementCounts(ct *dataset.ClipTruth, cat string) map[string]int {
	out := map[string]int{}
	for _, p := range ct.World.Paths() {
		if cat != "" && string(p.Cat) != cat {
			continue
		}
		if name := query.ClassifyPath(p.Centers, m.Movements, m.MaxEndpointDist); name != "" {
			out[name]++
		}
	}
	return out
}

// MovementsFor derives the movement reference paths of a dataset from its
// lane network (in a real deployment the user annotates these patterns;
// the simulator's lane definitions are exactly that annotation).
func MovementsFor(ds *dataset.Instance) []query.Movement {
	var out []query.Movement
	seen := map[string]bool{}
	for _, lane := range ds.Cfg.Lanes {
		if seen[lane.Name] {
			continue
		}
		seen[lane.Name] = true
		out = append(out, query.Movement{Name: lane.Name, Path: clipPathToFrame(lane.Path, ds.Cfg)})
	}
	return out
}

// clipPathToFrame clamps a lane path's endpoints into the visible frame so
// movement endpoints are comparable with refined track endpoints.
func clipPathToFrame(p geom.Path, cfg vidsim.Config) geom.Path {
	bounds := geom.Rect{W: float64(cfg.NomW), H: float64(cfg.NomH)}
	out := make(geom.Path, len(p))
	for i, pt := range p {
		out[i] = geom.Point{
			X: min(max(pt.X, bounds.X), bounds.MaxX()),
			Y: min(max(pt.Y, bounds.Y), bounds.MaxY()),
		}
	}
	return out
}

// MetricFor returns the evaluation metric the paper uses for each dataset:
// track counts on Amsterdam and Jackson, path breakdowns elsewhere (§4.1).
func MetricFor(ds *dataset.Instance) Metric {
	switch ds.Name {
	case "amsterdam", "jackson":
		return TrackCountMetric{Category: "car"}
	default:
		return PathBreakdownMetric{
			Category:        "car",
			Movements:       MovementsFor(ds),
			MaxEndpointDist: endpointTolerance(ds),
		}
	}
}

// endpointTolerance scales the movement endpoint tolerance with the frame
// size.
func endpointTolerance(ds *dataset.Instance) float64 {
	return 0.22 * float64(ds.Cfg.NomW)
}
