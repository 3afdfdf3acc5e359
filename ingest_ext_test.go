package otif_test

import (
	"context"
	"errors"
	"testing"

	"otif"
)

func TestIngestSessionEndToEnd(t *testing.T) {
	pipe, _ := pipeline(t)
	sess, err := pipe.Ingest(context.Background(),
		otif.IngestOptions{Cameras: 2, ClipsPerCamera: 2, ClipSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	st := sess.Stats()
	if st.ClipsIngested != 4 || st.ClipsDropped != 0 {
		t.Fatalf("stats = %+v, want 4 ingested", st)
	}
	if len(st.Cameras) != 2 || st.Cameras[0].Name != "caldot1-cam0" {
		t.Fatalf("camera stats = %+v", st.Cameras)
	}
	if got := sess.Live().Snapshot().Clips(); got != 4 {
		t.Fatalf("store clips = %d, want 4", got)
	}
	if got := len(sess.Published()); got != 4 {
		t.Fatalf("published log has %d entries, want 4", got)
	}

	ts := sess.Tracks()
	if got := len(ts.CountTracks("car")); got != 4 {
		t.Fatalf("TrackSet has %d clips, want 4", got)
	}
	if ts.Runtime <= 0 {
		t.Error("TrackSet runtime not carried over from session")
	}
	if got := ts.Manifest().Dataset; got != "caldot1" {
		t.Errorf("the session's tracks are named %q, want the pipeline's dataset caldot1", got)
	}
	// The TrackSet answers from the live store's snapshot rather than an
	// index of its own.
	if ts.Querier != sess.Live().Snapshot() {
		t.Error("TrackSet does not answer from the live store snapshot")
	}
}

func TestIngestRequiresTraining(t *testing.T) {
	pipe, err := otif.Open("caldot1", otif.Options{ClipsPerSet: 1, ClipSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Ingest(context.Background(), otif.IngestOptions{}); !errors.Is(err, otif.ErrNotTrained) {
		t.Fatalf("Ingest before Train = %v, want ErrNotTrained", err)
	}
}
