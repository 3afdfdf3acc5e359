// Persistence: the deployment workflow — train the models once, persist
// the model bundle and the extracted tracks to disk, then reload both in a
// "fresh process" and answer queries without any retraining or
// re-processing. The reloaded pipeline reproduces extraction results
// bit-for-bit.
//
//	go run ./examples/persistence
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"otif"
)

func main() {
	ctx := context.Background()
	// --- Training process -------------------------------------------------
	pipe, err := otif.Open("caldot1", otif.Options{ClipsPerSet: 3, ClipSeconds: 5})
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

	var modelBundle bytes.Buffer
	if err := pipe.SaveModels(&modelBundle); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model bundle: %d bytes\n", modelBundle.Len())

	tracks, err := pipe.Extract(ctx, pick.Cfg, otif.Test)
	if err != nil {
		log.Fatal(err)
	}
	var trackFile bytes.Buffer
	if _, err := tracks.WriteTo(&trackFile); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("track set: %d bytes for %d clips\n", trackFile.Len(), tracks.Clips())

	// --- Fresh process: reload instead of retraining ----------------------
	pipe2, err := otif.Open("caldot1", otif.Options{ClipsPerSet: 3, ClipSeconds: 5})
	if err != nil {
		log.Fatal(err)
	}
	if err := pipe2.LoadModels(bytes.NewReader(modelBundle.Bytes())); err != nil {
		log.Fatal(err)
	}
	tracks2, err := pipe2.Extract(ctx, pick.Cfg, otif.Test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded pipeline extraction: %.4f vs %.4f simulated seconds (identical: %v)\n",
		tracks2.Runtime, tracks.Runtime, tracks2.Runtime == tracks.Runtime)

	// --- Or skip extraction entirely: reload the stored tracks ------------
	// WriteTo writes a self-describing format, so the file reloads
	// with zero positional arguments: frame rate, geometry, clip length
	// and dataset name all come from the header.
	stored, err := otif.ReadTrackSet(bytes.NewReader(trackFile.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("header-described set: dataset=%q clips=%d\n", stored.Dataset, stored.Clips())
	a := tracks.CountTracks("car")
	b := stored.CountTracks("car")
	fmt.Printf("car counts, extracted vs reloaded-from-disk: %v vs %v\n", a, b)
	for i := range a {
		if a[i] != b[i] {
			log.Fatal("stored tracks diverge from the originals")
		}
	}

	// Queries run through the indexed store; the results are bit-identical
	// to the linear scans over the same tracks.
	busiest := stored.LimitQuery("car", otif.CountPredicate{N: 2}, 3, 1)
	for clip, frames := range busiest {
		for _, m := range frames {
			fmt.Printf("clip %d frame %d: %d cars visible\n", clip, m.FrameIdx, len(m.Boxes))
		}
	}
	fmt.Println("stored tracks answer queries with zero re-processing")
}
