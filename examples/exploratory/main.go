// Exploratory: the multi-query analytics session that motivates tracker
// pre-processing (§1, §3 of the paper). Video query optimizers pay a
// per-query execution phase; OTIF pays one pre-processing pass and then
// answers every follow-up question from the stored tracks in milliseconds
// of simulated time.
//
// The session runs the paper's four example queries over the Caldot1
// highway analog: hard-braking cars, busy frames, average visible cars,
// and traffic volume — plus a frame-level limit query.
//
//	go run ./examples/exploratory
package main

import (
	"context"
	"fmt"
	"log"

	"otif"
)

func main() {
	ctx := context.Background()
	pipe, err := otif.Open("caldot1", otif.Options{ClipsPerSet: 4, ClipSeconds: 6})
	if err != nil {
		log.Fatal(err)
	}
	pipe.Train()
	curve, err := pipe.Tune(ctx)
	if err != nil {
		log.Fatal(err)
	}
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		log.Fatal(err)
	}

	tracks, err := pipe.Extract(ctx, pick.Cfg, otif.Test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pre-processing: all tracks extracted in %.2f simulated seconds\n", tracks.Runtime)
	fmt.Println("\nexploratory session over the stored tracks:")

	// Query 1: find cars that brake hard (the paper's example query 1).
	braking := tracks.HardBraking(250)
	nb := 0
	for clip, ts := range braking {
		for _, tr := range ts {
			fmt.Printf("  hard braking: clip %d track %d (%d detections)\n", clip, tr.ID, len(tr.Dets))
			nb++
		}
	}
	if nb == 0 {
		fmt.Println("  hard braking: none found")
	}

	// Query 2: frames with several cars at once (example query 2 shape).
	busy := tracks.BusyFrames("car", 3, "car", 3)
	total := 0
	for _, frames := range busy {
		total += len(frames)
	}
	fmt.Printf("  frames with >= 3 cars visible: %d\n", total)

	// Query 3: average number of cars visible over time (example query 3).
	avg := tracks.AvgVisible("car")
	fmt.Printf("  average visible cars per clip: ")
	for _, a := range avg {
		fmt.Printf("%.1f ", a)
	}
	fmt.Println()

	// Query 4: traffic volume — unique cars over time (example query 4).
	counts := tracks.CountTracks("car")
	fmt.Printf("  traffic volume (unique cars per clip): %v\n", counts)

	// Query 5: a frame-level limit query (the §4.2 workload): the first
	// few well-separated frames with at least 2 cars.
	matches := tracks.LimitQuery("car", otif.CountPredicate{N: 2}, 3, 2)
	for clip, ms := range matches {
		for _, m := range ms {
			fmt.Printf("  limit query hit: clip %d frame %d (%d cars)\n", clip, m.FrameIdx, len(m.Boxes))
		}
	}

	fmt.Println("\nevery query above re-used the same pre-processing pass;")
	fmt.Println("a query optimizer would have re-processed video for each one.")
}
