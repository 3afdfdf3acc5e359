// Quickstart: the minimal OTIF workflow from Figure 1 of the paper.
//
// Open a dataset, train the models, tune the speed-accuracy curve, pick a
// configuration, extract all tracks from the test set, and answer a query
// from the stored tracks.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"otif"
)

func main() {
	ctx := context.Background()
	// 1. Sample the dataset (training/validation/test clip sets).
	pipe, err := otif.Open("caldot1", otif.Options{ClipsPerSet: 4, ClipSeconds: 6})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train: theta_best selection, segmentation proxy models, the
	//    recurrent reduced-rate tracker, and the endpoint refiner.
	best := pipe.Train()
	fmt.Println("theta_best:", best)

	// 3. Tune: the greedy joint tuner produces a speed-accuracy curve.
	curve, err := pipe.Tune(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nspeed-accuracy curve (validation set, simulated seconds):")
	for _, p := range curve {
		fmt.Printf("  %8.2fs  accuracy %.3f   %v\n", p.Runtime, p.Accuracy, p.Cfg)
	}

	// 4. Pick a point on the curve: the fastest within 5% of the best
	//    accuracy (the paper's Table 2 selection rule).
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npicked: %v (%.1fx faster than the slowest point)\n",
		pick.Cfg, curve[0].Runtime/pick.Runtime)

	// 5. Extract all tracks from the test set.
	tracks, err := pipe.Extract(ctx, pick.Cfg, otif.Test)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := pipe.Accuracy(tracks, otif.Test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted tracks in %.2f simulated seconds, accuracy %.3f\n",
		tracks.Runtime, acc)

	// 6. Query the stored tracks — no further decoding or inference.
	counts := tracks.CountTracks("car")
	total := 0
	for _, c := range counts {
		total += c
	}
	fmt.Printf("unique cars per clip: %v (total %d)\n", counts, total)
}
