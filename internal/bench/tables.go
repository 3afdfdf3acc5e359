package bench

import (
	"io"
	"sort"

	"otif/internal/parallel"
	"otif/internal/tuner"
)

// Table2Row is one dataset's row of Table 2: per-method runtime at the
// fastest configuration within 5% of the best achieved accuracy, for one
// query and for five queries (estimated by scaling query-specific phases).
type Table2Row struct {
	Dataset  string
	OneQuery map[string]float64
	FiveQ    map[string]float64
}

// Table2Tol is the accuracy tolerance for Table 2. The paper uses 5%,
// justified by the sample variance of accuracy averaged over 60 test
// clips; our scaled-down sets have ~8 clips, so the same argument
// (std ~ 1/sqrt(n)) widens the band by sqrt(60/8) ~ 2.7x to ~12%.
const Table2Tol = 0.12

// Table2Datasets lists the datasets of Table 2 in the paper's order.
var Table2Datasets = []string{"caldot1", "caldot2", "tokyo", "uav", "warsaw", "amsterdam", "jackson"}

// Table2 regenerates Table 2 over the given datasets (all seven by
// default; tests may pass a subset). Runtimes are scaled to paper-sized
// one-hour test sets.
func (s *Suite) Table2(w io.Writer, datasets []string) ([]Table2Row, error) {
	if len(datasets) == 0 {
		datasets = Table2Datasets
	}
	scale := s.EquivScale()
	var rows []Table2Row
	methods := []string{"OTIF", "Miris", "Chameleon", "NoScope", "CaTDet", "CenterTrack"}

	fprintf(w, "Table 2: runtime (s, scaled to 1-hour test sets) of the fastest\n")
	fprintf(w, "configuration within %.0f%% of best achieved accuracy (the paper's 5%%\n", Table2Tol*100)
	fprintf(w, "band scaled to this run's smaller clip sets; see EXPERIMENTS.md).\n\n")
	fprintf(w, "%-10s |", "1 Query")
	for _, m := range methods {
		fprintf(w, " %11s", m)
	}
	fprintf(w, "\n")

	// Prefetch every dataset's curves on the worker pool: the per-dataset
	// memo entries train concurrently, and the serial loop below
	// then reads memoized results, printing rows in dataset order.
	parallel.For(len(datasets), func(i int) {
		_, _ = s.TrackCurves(datasets[i])
	})

	curvesByDS := map[string][]MethodCurve{}
	for _, name := range datasets {
		curves, err := s.TrackCurves(name)
		if err != nil {
			return nil, err
		}
		curvesByDS[name] = curves
		row := Table2Row{Dataset: name, OneQuery: map[string]float64{}, FiveQ: map[string]float64{}}
		for _, m := range methods {
			p, ok := FastestWithinTol(curves, m, Table2Tol)
			if !ok {
				continue
			}
			rt := p.Runtime * scale
			row.OneQuery[m] = rt
			qf := queryFraction(curves, m)
			row.FiveQ[m] = rt * (1 + 4*qf)
		}
		rows = append(rows, row)
		fprintf(w, "%-10s |", name)
		for _, m := range methods {
			if rt, ok := row.OneQuery[m]; ok {
				fprintf(w, " %11.0f", rt)
			} else {
				fprintf(w, " %11s", "-")
			}
		}
		fprintf(w, "\n")
	}

	fprintf(w, "\n%-10s |", "5 Queries")
	for _, m := range methods {
		fprintf(w, " %11s", m)
	}
	fprintf(w, "\n")
	for _, row := range rows {
		fprintf(w, "%-10s |", row.Dataset)
		for _, m := range methods {
			if rt, ok := row.FiveQ[m]; ok {
				fprintf(w, " %11.0f", rt)
			} else {
				fprintf(w, " %11s", "-")
			}
		}
		fprintf(w, "\n")
	}

	// Headline ratios (the paper reports 5x/25x vs Miris, 3.4x vs the
	// next best baseline).
	var sum1, sum5, sumNext float64
	n := 0
	for _, row := range rows {
		o1, ok1 := row.OneQuery["OTIF"]
		m1, ok2 := row.OneQuery["Miris"]
		if !ok1 || !ok2 || o1 == 0 {
			continue
		}
		sum1 += m1 / o1
		sum5 += row.FiveQ["Miris"] / row.FiveQ["OTIF"]
		next := bestOther(row.OneQuery)
		if next > 0 {
			sumNext += next / o1
		}
		n++
	}
	if n > 0 {
		fprintf(w, "\nAverage speedup vs Miris: %.1fx (1 query), %.1fx (5 queries)\n", sum1/float64(n), sum5/float64(n))
		fprintf(w, "Average speedup vs next-best detect/track baseline: %.1fx\n", sumNext/float64(n))
	}
	return rows, nil
}

func queryFraction(curves []MethodCurve, method string) float64 {
	for _, c := range curves {
		if c.Method == method {
			return c.QueryFraction
		}
	}
	return 0
}

// bestOther returns the smallest runtime among the non-OTIF, non-Miris
// detect/track baselines in the row.
func bestOther(row map[string]float64) float64 {
	best := -1.0
	for _, m := range []string{"Chameleon", "NoScope", "CaTDet", "CenterTrack"} {
		if rt, ok := row[m]; ok && (best < 0 || rt < best) {
			best = rt
		}
	}
	return best
}

// Figure5 prints the per-dataset test speed-accuracy curves (the data
// behind Figure 5's plots).
func (s *Suite) Figure5(w io.Writer, datasets []string) (map[string][]MethodCurve, error) {
	if len(datasets) == 0 {
		datasets = Table2Datasets
	}
	scale := s.EquivScale()
	parallel.For(len(datasets), func(i int) {
		_, _ = s.TrackCurves(datasets[i])
	})
	out := map[string][]MethodCurve{}
	for _, name := range datasets {
		curves, err := s.TrackCurves(name)
		if err != nil {
			return nil, err
		}
		out[name] = curves
		fprintf(w, "Figure 5 [%s]: runtime-accuracy curves (test set, scaled seconds)\n", name)
		for _, c := range curves {
			pts := append([]tuner.Point{}, c.Points...)
			sort.Slice(pts, func(i, j int) bool { return pts[i].Runtime > pts[j].Runtime })
			fprintf(w, "  %-12s", c.Method)
			for _, p := range pts {
				fprintf(w, " (%.0fs, %.2f)", p.Runtime*scale, p.Accuracy)
			}
			fprintf(w, "\n")
		}
	}
	return out, nil
}
