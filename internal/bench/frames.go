package bench

import (
	"fmt"
	"io"

	"otif/internal/baselines"
	"otif/internal/geom"
	"otif/internal/parallel"
	"otif/internal/query"
)

// Table3Result aggregates the frame-level limit query comparison (Table 3):
// per-method average pre-processing, query, and total time, plus accuracy,
// for one and five queries.
type Table3Result struct {
	PreprocessTime map[string]float64
	QueryTime      map[string]float64
	Accuracy       map[string]float64
	DetectorApps   map[string]float64
}

// frameQueryDatasets lists Table 3's six (dataset, query-type) pairs:
// count queries on UAV and Tokyo, region queries on Jackson and Caldot1,
// hot spot queries on Warsaw and Amsterdam (§4.2).
var frameQueryDatasets = []struct {
	ds   string
	kind string
}{
	{"uav", "count"},
	{"tokyo", "count"},
	{"jackson", "region"},
	{"caldot1", "region"},
	{"warsaw", "hotspot"},
	{"amsterdam", "hotspot"},
}

// buildFrameQuery constructs the query for one dataset, choosing N so the
// predicate is selective but satisfiable (the paper sets parameters so
// fewer than 250 five-second segments match).
func buildFrameQuery(t *trained, kind string) baselines.FrameQuery {
	nomW := float64(t.Sys.DS.Cfg.NomW)
	nomH := float64(t.Sys.DS.Cfg.NomH)
	q := baselines.FrameQuery{
		Name:      kind,
		Category:  "car",
		Limit:     8,
		MinSepSec: 5,
	}
	makePred := func(n int) query.FramePredicate {
		switch kind {
		case "region":
			region := geom.Polygon{
				{X: nomW * 0.25, Y: nomH * 0.25},
				{X: nomW * 0.75, Y: nomH * 0.25},
				{X: nomW * 0.75, Y: nomH * 0.75},
				{X: nomW * 0.25, Y: nomH * 0.75},
			}
			return query.RegionPredicate{Region: region, N: n}
		case "hotspot":
			return query.HotSpotPredicate{Radius: nomW * 0.18, N: n}
		default:
			return query.CountPredicate{N: n}
		}
	}
	// Choose the largest N with at least Limit ground-truth matching
	// frames on the validation set.
	clips := t.Sys.DS.Val
	for n := 6; n >= 1; n-- {
		q.Pred = makePred(n)
		matches := 0
		for _, ct := range clips {
			for f := 0; f < ct.Clip.Len(); f += 3 {
				if baselines.TruthSatisfies(ct, q, f) {
					matches++
				}
			}
		}
		if matches >= q.Limit*3 {
			return q
		}
	}
	q.Pred = makePred(1)
	return q
}

// Table3 regenerates Table 3: OTIF vs BlazeIt vs TASTI on the six
// frame-level limit queries, averaged. Runtimes are scaled to paper-sized
// sets. nQueries drives the five-query estimate (BlazeIt repeats its
// query-specific proxy pass; TASTI reuses embeddings; OTIF reuses tracks).
func (s *Suite) Table3(w io.Writer, datasets []string) (*Table3Result, error) {
	pairs := frameQueryDatasets
	if len(datasets) > 0 {
		pairs = nil
		for _, p := range frameQueryDatasets {
			for _, d := range datasets {
				if p.ds == d {
					pairs = append(pairs, p)
				}
			}
		}
	}
	scale := s.EquivScale()
	res := &Table3Result{
		PreprocessTime: map[string]float64{},
		QueryTime:      map[string]float64{},
		Accuracy:       map[string]float64{},
		DetectorApps:   map[string]float64{},
	}
	// Each pair trains and queries its own dataset, so the pairs fan out
	// on the worker pool; accumulation and printing stay serial, in pair
	// order, so averages are bit-for-bit identical at any worker count.
	type pairResult struct {
		q          baselines.FrameQuery
		ro, rb, rt baselines.FrameLevelResult
		err        error
	}
	perPair := parallel.Map(len(pairs), func(i int) pairResult {
		pair := pairs[i]
		t, err := s.System(pair.ds)
		if err != nil {
			return pairResult{err: err}
		}
		q := buildFrameQuery(t, pair.kind)
		clips := t.Sys.DS.Test

		// OTIF: answer from the tracks of the fastest test-curve point
		// within Table2Tol of OTIF's own best accuracy, kept when the curve
		// was evaluated on the test set. §4.2 uses "the same configurations
		// as the ones from Table 2", but Table 2's floor is the best accuracy
		// of every method, so the two differ wherever a baseline is more
		// accurate (on amsterdam Table 2 has no OTIF point at all).
		curve, err := s.testPointsOTIF(pair.ds)
		if err != nil {
			return pairResult{err: err}
		}
		if curve.Pick == nil {
			return pairResult{err: fmt.Errorf("bench: no tuned configuration for %s", pair.ds)}
		}
		ro := baselines.NewOTIFFrames(curve.Pick).RunFrameQuery(t.Sys, q, clips)

		blaze := baselines.NewBlazeIt()
		rb := blaze.RunFrameQuery(t.Sys, q, clips)

		tasti := baselines.NewTASTI()
		rt := tasti.RunFrameQuery(t.Sys, q, clips, nil, 0)
		return pairResult{q: q, ro: ro, rb: rb, rt: rt}
	})
	n := 0
	for i, pair := range pairs {
		pr := perPair[i]
		if pr.err != nil {
			return nil, pr.err
		}
		accumulate(res, "OTIF", pr.ro)
		accumulate(res, "BlazeIt", pr.rb)
		accumulate(res, "TASTI", pr.rt)

		fprintf(w, "[%s %s] N-query=%v  OTIF(pre=%.0f q=%.2f acc=%.2f)  BlazeIt(pre=%.0f q=%.1f acc=%.2f apps=%d)  TASTI(pre=%.0f q=%.1f acc=%.2f apps=%d)\n",
			pair.ds, pair.kind, pr.q.Name,
			pr.ro.PreprocessTime*scale, pr.ro.QueryTime*scale, pr.ro.Accuracy,
			pr.rb.PreprocessTime*scale, pr.rb.QueryTime*scale, pr.rb.Accuracy, pr.rb.DetectorApps,
			pr.rt.PreprocessTime*scale, pr.rt.QueryTime*scale, pr.rt.Accuracy, pr.rt.DetectorApps)
		n++
	}
	if n == 0 {
		return res, nil
	}
	for _, m := range []string{"OTIF", "BlazeIt", "TASTI"} {
		res.PreprocessTime[m] = res.PreprocessTime[m] / float64(n) * scale
		res.QueryTime[m] = res.QueryTime[m] / float64(n) * scale
		res.Accuracy[m] /= float64(n)
		res.DetectorApps[m] /= float64(n)
	}

	fprintf(w, "\nTable 3 (averages over %d queries, scaled seconds):\n", n)
	fprintf(w, "%-28s %8s %8s %8s\n", "", "OTIF", "BlazeIt", "TASTI")
	fprintf(w, "%-28s %8.0f %8.0f %8.0f\n", "Avg pre-processing time", res.PreprocessTime["OTIF"], res.PreprocessTime["BlazeIt"], res.PreprocessTime["TASTI"])
	fprintf(w, "%-28s %8.2f %8.1f %8.1f\n", "Avg query time", res.QueryTime["OTIF"], res.QueryTime["BlazeIt"], res.QueryTime["TASTI"])
	one := func(m string, pre float64) float64 { return pre + res.QueryTime[m] }
	fprintf(w, "%-28s %8.0f %8.0f %8.0f\n", "Avg total time (1 query)",
		one("OTIF", res.PreprocessTime["OTIF"]),
		one("BlazeIt", res.PreprocessTime["BlazeIt"]),
		one("TASTI", res.PreprocessTime["TASTI"]))
	// Five queries: BlazeIt's proxy pass is query-specific and repeats;
	// OTIF's tracks and TASTI's embeddings are reusable.
	fprintf(w, "%-28s %8.0f %8.0f %8.0f\n", "Avg total time (5 queries)",
		res.PreprocessTime["OTIF"]+5*res.QueryTime["OTIF"],
		5*(res.PreprocessTime["BlazeIt"]+res.QueryTime["BlazeIt"]),
		res.PreprocessTime["TASTI"]+5*res.QueryTime["TASTI"])
	fprintf(w, "%-28s %7.0f%% %7.0f%% %7.0f%%\n", "Avg accuracy",
		res.Accuracy["OTIF"]*100, res.Accuracy["BlazeIt"]*100, res.Accuracy["TASTI"]*100)
	fprintf(w, "%-28s %8.0f %8.0f %8.0f\n", "Avg detector applications",
		res.DetectorApps["OTIF"], res.DetectorApps["BlazeIt"], res.DetectorApps["TASTI"])
	return res, nil
}

func accumulate(res *Table3Result, m string, r baselines.FrameLevelResult) {
	res.PreprocessTime[m] += r.PreprocessTime
	res.QueryTime[m] += r.QueryTime
	res.Accuracy[m] += r.Accuracy
	res.DetectorApps[m] += float64(r.DetectorApps)
}
