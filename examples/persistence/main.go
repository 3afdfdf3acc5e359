// Persistence: the deployment workflow — train the models once, persist
// the model bundle and the extracted tracks (as segment files in a
// directory), then reload both in a "fresh process" and answer queries
// without any retraining or re-processing. The reloaded pipeline
// reproduces extraction results bit-for-bit.
//
//	go run ./examples/persistence
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"slices"

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
	dir, err := os.MkdirTemp("", "otif-segments-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := tracks.ExportSegments(dir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("track set: %d clips saved as segment files in %s\n", tracks.Clips(), dir)

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
	// Segment files are self-describing, so the directory reloads with no
	// other argument: frame rate, geometry, clip length and dataset name
	// all come from the headers.
	sets, err := otif.LoadTrackSets(dir)
	if err != nil {
		log.Fatal(err)
	}
	stored := sets["caldot1"]
	a, b := tracks.CountTracks("car"), stored.CountTracks("car")
	fmt.Printf("header-described set %q of %d clips: car counts %v (extracted: %v)\n",
		stored.Manifest().Dataset, stored.Clips(), b, a)
	if !slices.Equal(a, b) {
		log.Fatal("stored tracks diverge from the originals")
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
