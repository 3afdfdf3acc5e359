// Command benchtables regenerates every table and figure of the paper's
// evaluation section from the simulated substrate:
//
//	benchtables -table 2              # Table 2 (track query runtimes)
//	benchtables -figure 5             # Figure 5 (speed-accuracy curves)
//	benchtables -table 3              # Table 3 (frame-level limit queries)
//	benchtables -figure 6             # Figure 6 (cost breakdown)
//	benchtables -table 4              # Table 4 (ablation study)
//	benchtables -figure 7             # Figure 7 (proxy model analysis)
//	benchtables -table validate       # §4.6 implementation validation
//	benchtables -all                  # everything
//
// Use -datasets to restrict expensive tables to a subset, and
// -clips/-seconds to change the sampled set sizes (runtimes are always
// scaled to the paper's one-hour sets).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"otif/internal/bench"
	"otif/internal/dataset"
	"otif/internal/obs"
	"otif/internal/parallel"
)

func main() {
	var (
		table    = flag.String("table", "", "table to regenerate: 2, 3, 4, variable, validate")
		figure   = flag.String("figure", "", "figure to regenerate: 5, 6, 7")
		all      = flag.Bool("all", false, "regenerate everything")
		datasets = flag.String("datasets", "", "comma-separated dataset subset")
		clips    = flag.Int("clips", dataset.DefaultSpec.Clips, "clips per set")
		seconds  = flag.Float64("seconds", dataset.DefaultSpec.ClipSeconds, "seconds per clip")
		seed     = flag.Int64("seed", 7, "sampling seed")
		nworkers = flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
		traceOut = flag.String("trace-out", "", "record spans in the flight recorder and write them to this file on exit (Chrome trace-event JSON, loads in Perfetto)")
	)
	flag.Parse()
	parallel.SetWorkers(*nworkers)
	if *traceOut != "" {
		obs.EnableTracing(obs.DefaultRecorderSpans)
		defer func() {
			if err := obs.WriteTraceFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
				return
			}
			fmt.Printf("wrote span trace to %s\n", *traceOut)
		}()
	}

	spec := dataset.SetSpec{Clips: *clips, ClipSeconds: *seconds}
	suite := bench.NewSuite(spec, *seed)
	var names []string
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}

	run := func(what string) error {
		switch what {
		case "2":
			_, err := suite.Table2(os.Stdout, names)
			return err
		case "3":
			_, err := suite.Table3(os.Stdout, names)
			return err
		case "4":
			_, err := suite.Table4(os.Stdout, names)
			return err
		case "validate":
			suite.Validate(os.Stdout)
			return nil
		case "variable":
			ds := "caldot1"
			if len(names) > 0 {
				ds = names[0]
			}
			_, err := suite.VariableGap(os.Stdout, ds)
			return err
		case "5":
			_, err := suite.Figure5(os.Stdout, names)
			return err
		case "6":
			ds := "caldot1"
			if len(names) > 0 {
				ds = names[0]
			}
			_, err := suite.Figure6(os.Stdout, ds)
			return err
		case "7":
			ds := "caldot1"
			if len(names) > 0 {
				ds = names[0]
			}
			_, _, err := suite.Figure7(os.Stdout, ds)
			return err
		default:
			return fmt.Errorf("unknown table/figure %q", what)
		}
	}

	var work []string
	if *all {
		work = []string{"2", "5", "3", "6", "4", "7", "variable", "validate"}
	} else {
		if *table != "" {
			work = append(work, *table)
		}
		if *figure != "" {
			work = append(work, *figure)
		}
	}
	if len(work) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for i, whatItem := range work {
		if i > 0 {
			fmt.Println()
		}
		if err := run(whatItem); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
	}
}
