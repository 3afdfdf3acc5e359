// Trafficcount: a turning-movement count on the Tokyo junction analog —
// the motivating traffic-planning workload from the paper's introduction.
//
// The junction has ten labeled movements (straight-through and turning
// paths). After one OTIF pre-processing pass, the per-movement counts of
// every clip come straight from the stored tracks, and the same tracks
// answer a follow-up question (which movement is busiest per clip) at no
// extra cost.
//
//	go run ./examples/trafficcount
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"otif"
)

func main() {
	ctx := context.Background()
	pipe, err := otif.Open("tokyo", otif.Options{ClipsPerSet: 3, ClipSeconds: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training on the tokyo junction analog (10 movements)...")
	pipe.Train()
	curve, err := pipe.Tune(ctx)
	if err != nil {
		log.Fatal(err)
	}
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuned configuration: %v (%.2f simulated s over the validation set)\n\n",
		pick.Cfg, pick.Runtime)

	tracks, err := pipe.Extract(ctx, pick.Cfg, otif.Test)
	if err != nil {
		log.Fatal(err)
	}

	movements := pipe.Movements()
	tolerance := 0.22 * float64(pipe.System().DS.Cfg.NomW)
	perClip := tracks.PathBreakdown("car", movements, tolerance)

	// Aggregate the turning movement count across clips.
	agg := map[string]int{}
	for _, clip := range perClip {
		for name, n := range clip {
			agg[name] += n
		}
	}
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("turning movement counts over the test set:")
	for _, n := range names {
		fmt.Printf("  %-6s %d\n", n, agg[n])
	}

	// Exploratory follow-up (free — the tracks are already extracted):
	// the busiest movement of each clip.
	fmt.Println("\nbusiest movement per clip:")
	for i, clip := range perClip {
		bestName, bestN := "-", -1
		for name, n := range clip {
			if n > bestN || (n == bestN && name < bestName) {
				bestName, bestN = name, n
			}
		}
		fmt.Printf("  clip %d: %s (%d cars)\n", i, bestName, bestN)
	}
}
