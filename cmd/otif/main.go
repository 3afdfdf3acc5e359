// Command otif runs the OTIF pipeline end to end on one simulated dataset:
// it trains the models, tunes the speed-accuracy curve, extracts all tracks
// from the test set with a chosen configuration, and answers a few queries
// from the stored tracks.
//
//	otif -dataset caldot1                 # full workflow, fastest-within-5% config
//	otif -dataset tokyo -tolerance 0.02   # pick a more accurate configuration
//	otif -dataset jackson -curve          # print the whole tuned curve and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"otif"
	"otif/internal/obs"
)

func main() {
	var (
		name     = flag.String("dataset", "caldot1", "dataset name (see -list)")
		list     = flag.Bool("list", false, "list datasets and exit")
		curve    = flag.Bool("curve", false, "print the tuned speed-accuracy curve and exit")
		tol      = flag.Float64("tolerance", 0.05, "accuracy tolerance when picking the execution configuration")
		clips    = flag.Int("clips", 0, "clips per set (0 = default)")
		seconds  = flag.Float64("seconds", 0, "seconds per clip (0 = default)")
		saveTo   = flag.String("save", "", "save the trained model bundle to this file")
		loadFm   = flag.String("load", "", "load a trained model bundle instead of training")
		tracksF  = flag.String("tracks", "", "write the extracted track set to this file (self-describing v2 format)")
		queryF   = flag.String("query-tracks", "", "load a stored track file and answer queries from it, skipping the pipeline entirely")
		segsDir  = flag.String("export-segments", "", "export the track set as shippable segment files (OTIFSEG1) into this directory")
		segClips = flag.Int("segment-clips", 4, "clips per exported segment for -export-segments (<= 0 = one segment)")
		nwork    = flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
		metricsF = flag.Bool("metrics", false, "print the metrics registry (JSON) after the run")
		traceOut = flag.String("trace-out", "", "record spans in the flight recorder and write them to this file (Chrome trace-event JSON, loads in Perfetto)")
	)
	flag.Parse()
	otif.SetParallelism(*nwork)
	if *traceOut != "" {
		otif.EnableTracing()
	}
	// finish emits the optional observability outputs: the metrics registry
	// as JSON on stdout, and the flight recorder's spans to -trace-out.
	finish := func() {
		if *metricsF {
			fmt.Println("\nmetrics:")
			otif.Snapshot().WriteJSON(os.Stdout)
		}
		if *traceOut != "" {
			if err := obs.WriteTraceFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "otif:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote span trace to %s\n", *traceOut)
		}
	}

	if *list {
		for _, d := range otif.Datasets() {
			fmt.Println(d)
		}
		return
	}

	// -query-tracks: the pure post-processing workflow. The track
	// format is self-describing, so no dataset, geometry or frame-rate
	// arguments are needed — open the file and query.
	if *queryF != "" {
		f, err := os.Open(*queryF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "otif:", err)
			os.Exit(1)
		}
		ts, err := otif.ReadTrackSet(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "otif:", err)
			os.Exit(1)
		}
		fmt.Printf("loaded %s: dataset=%q clips=%d\n", *queryF, ts.Dataset, ts.Clips())
		if *segsDir != "" {
			exportSegments(ts, *segsDir, *segClips)
		}
		counts := ts.CountTracks("car")
		total := 0
		for _, c := range counts {
			total += c
		}
		fmt.Printf("  unique cars per clip: %v (total %d)\n", counts, total)
		frames := ts.LimitQuery("car", otif.CountPredicate{N: 2}, 3, 1)
		for clip, ms := range frames {
			for _, m := range ms {
				fmt.Printf("  clip %d frame %d: %d cars visible\n", clip, m.FrameIdx, len(m.Boxes))
			}
		}
		fmt.Printf("  average visible cars per clip: %.1f...\n", mean(ts.AvgVisible("car")))
		finish()
		return
	}

	start := time.Now()
	pipe, err := otif.Open(*name, otif.Options{ClipsPerSet: *clips, ClipSeconds: *seconds})
	if err != nil {
		fmt.Fprintln(os.Stderr, "otif:", err)
		os.Exit(1)
	}
	if *loadFm != "" {
		f, err := os.Open(*loadFm)
		if err != nil {
			fmt.Fprintln(os.Stderr, "otif:", err)
			os.Exit(1)
		}
		if err := pipe.LoadModels(f); err != nil {
			fmt.Fprintln(os.Stderr, "otif:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("loaded model bundle from %s (wall %v)\n", *loadFm, time.Since(start).Round(time.Millisecond))
	} else {
		best := pipe.Train()
		fmt.Printf("theta_best: %v   (wall %v)\n", best, time.Since(start).Round(time.Millisecond))
	}
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "otif:", err)
			os.Exit(1)
		}
		if err := pipe.SaveModels(f); err != nil {
			fmt.Fprintln(os.Stderr, "otif:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Println("saved model bundle to", *saveTo)
	}

	points, err := pipe.Tune(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "otif:", err)
		os.Exit(1)
	}
	fmt.Println("speed-accuracy curve (validation, simulated seconds):")
	for _, p := range points {
		fmt.Printf("  %-55v rt=%8.2fs acc=%.3f\n", p.Cfg, p.Runtime, p.Accuracy)
	}
	if *curve {
		finish()
		return
	}

	pick, err := otif.PickFastestWithin(points, *tol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "otif:", err)
		os.Exit(1)
	}
	fmt.Printf("\nexecuting with %v\n", pick.Cfg)
	ts, err := pipe.Extract(context.Background(), pick.Cfg, otif.Test)
	if err != nil {
		fmt.Fprintln(os.Stderr, "otif:", err)
		os.Exit(1)
	}
	acc, err := pipe.Accuracy(ts, otif.Test)
	if err != nil {
		fmt.Fprintln(os.Stderr, "otif:", err)
		os.Exit(1)
	}
	fmt.Printf("test-set extraction: %.2f simulated s, accuracy %.3f (wall %v)\n",
		ts.Runtime, acc, time.Since(start).Round(time.Millisecond))
	if *tracksF != "" {
		f, err := os.Create(*tracksF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "otif:", err)
			os.Exit(1)
		}
		if n, err := ts.WriteTo(f); err != nil {
			fmt.Fprintln(os.Stderr, "otif:", err)
			os.Exit(1)
		} else {
			fmt.Printf("stored tracks in %s (%d bytes)\n", *tracksF, n)
		}
		f.Close()
	}
	if *segsDir != "" {
		exportSegments(ts, *segsDir, *segClips)
	}

	// A few exploratory queries over the stored tracks.
	counts := ts.CountTracks("car")
	total := 0
	for _, c := range counts {
		total += c
	}
	fmt.Printf("\nqueries over stored tracks (no further decoding or inference):\n")
	fmt.Printf("  unique cars per clip: %v (total %d)\n", counts, total)

	if movements := pipe.Movements(); len(movements) > 0 {
		agg := map[string]int{}
		for _, m := range ts.PathBreakdown("car", movements, 0.22*float64(pipe.System().DS.Cfg.NomW)) {
			for k, v := range m {
				agg[k] += v
			}
		}
		keys := make([]string, 0, len(agg))
		for k := range agg {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("  path breakdown:")
		for _, k := range keys {
			fmt.Printf(" %s=%d", k, agg[k])
		}
		fmt.Println()
	}

	braking := ts.HardBraking(250)
	nb := 0
	for _, b := range braking {
		nb += len(b)
	}
	fmt.Printf("  hard-braking tracks (decel >= 250 px/s^2): %d\n", nb)
	avg := ts.AvgVisible("car")
	fmt.Printf("  average visible cars per clip: %v\n", fmt.Sprintf("%.1f...", mean(avg)))

	finish()
}

// exportSegments writes the track set as segment files for serving from a
// replica (otifd -segments-dir).
func exportSegments(ts *otif.TrackSet, dir string, clipsPerSeg int) {
	paths, err := ts.ExportSegments(dir, clipsPerSeg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "otif:", err)
		os.Exit(1)
	}
	fmt.Printf("exported %d segment file(s) to %s\n", len(paths), dir)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
