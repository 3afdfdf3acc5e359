package ingest

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/obs"
	"otif/internal/query"
	"otif/internal/store"
	"otif/internal/video"
)

// testWorld returns a tiny untuned system plus the streaming config the
// tests run under. SORT needs no trained tracker, so NewSystem (which
// only estimates the background) is enough — ingest shares one model set
// across all cameras exactly like a trained deployment would.
var (
	worldOnce sync.Once
	worldSys  *core.System
	worldDS   *dataset.Instance
)

func testWorld(t *testing.T) (*core.System, *dataset.Instance, core.Config) {
	t.Helper()
	worldOnce.Do(func() {
		ds, err := dataset.Build("caldot1", dataset.SetSpec{Clips: 2, ClipSeconds: 2}, 7)
		if err != nil {
			t.Fatal(err)
		}
		worldDS = ds
		worldSys = core.NewSystem(ds)
	})
	cfg := core.Config{
		Arch: detect.ArchYOLO, DetScale: 1.0, DetConf: core.DetConfDefault,
		Gap: 2, Tracker: core.TrackerSORT,
	}
	return worldSys, worldDS, cfg
}

// camera adapts a dataset camera feed to an ingest Camera.
func camera(ds *dataset.Instance, cam, limit int) Camera {
	gen := ds.Camera(cam, 0)
	return Camera{
		Name:  ds.Name + "-cam" + string(rune('0'+cam)),
		Clip:  func(i int) *video.Clip { return gen(i).Clip },
		Limit: limit,
	}
}

// TestSessionPublishesEveryClipBitIdentically runs a bounded 2-camera
// session to completion and then re-extracts every published (camera,
// clip) pair through the batch entry point: the streamed tracks must be
// bit-identical, regardless of the publish order worker timing chose.
func TestSessionPublishesEveryClipBitIdentically(t *testing.T) {
	sys, ds, cfg := testWorld(t)
	const limit = 3
	s, err := Start(context.Background(), sys, Options{
		Cameras: []Camera{camera(ds, 0, limit), camera(ds, 1, limit)},
		Cfg:     cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	log := s.Published()
	if len(log) != 2*limit {
		t.Fatalf("published %d clips, want %d", len(log), 2*limit)
	}
	snap := s.Live().Snapshot()
	if snap.Clips() != 2*limit {
		t.Fatalf("store has %d clips, want %d", snap.Clips(), 2*limit)
	}
	gens := []func(int) *dataset.ClipTruth{ds.Camera(0, 0), ds.Camera(1, 0)}
	seen := map[[2]int]bool{}
	for _, p := range log {
		if seen[[2]int{p.Camera, p.CamClip}] {
			t.Fatalf("clip (%d,%d) published twice", p.Camera, p.CamClip)
		}
		seen[[2]int{p.Camera, p.CamClip}] = true
		clip := gens[p.Camera](p.CamClip).Clip
		acct := costmodel.NewAccountant()
		want := sys.ExtractClip(context.Background(), cfg, clip, acct)
		got := snap.Tracks(p.StoreClip)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("camera %d clip %d: streamed tracks diverge from batch extraction", p.Camera, p.CamClip)
		}
		if p.Runtime != acct.Total() {
			t.Fatalf("camera %d clip %d: runtime %v, want %v", p.Camera, p.CamClip, p.Runtime, acct.Total())
		}
	}

	st := s.Stats()
	if st.ClipsIngested != 2*limit || st.ClipsDropped != 0 || st.QueueDepth != 0 {
		t.Fatalf("stats = %+v, want %d ingested, 0 dropped, empty queue", st, 2*limit)
	}
	for i, c := range st.Cameras {
		if c.ClipsEmitted != limit || c.ClipsPublished != limit || c.Lag != 0 {
			t.Fatalf("camera %d stats = %+v", i, c)
		}
	}
}

// TestSessionIncrementalMatchesFullRebuild pins the acceptance criterion
// end-to-end: the session's incrementally published store is bit-identical
// to a full index rebuild over the same extracted clips.
func TestSessionIncrementalMatchesFullRebuild(t *testing.T) {
	sys, ds, cfg := testWorld(t)
	s, err := Start(context.Background(), sys, Options{
		Cameras: []Camera{camera(ds, 2, 2), camera(ds, 3, 2)},
		Cfg:     cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	snap := s.Live().Snapshot()
	perClip := make([][]*query.Track, snap.Clips())
	for i := range perClip {
		perClip[i] = snap.Tracks(i)
	}
	full, err := store.NewSharded("full", snap.Context(), store.SplitSegments(perClip, snap.Context(), 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{"", "car", "bus"} {
		if got, want := snap.CountTracks(cat), full.CountTracks(cat); !reflect.DeepEqual(got, want) {
			t.Fatalf("CountTracks(%q): incremental %v vs full rebuild %v", cat, got, want)
		}
	}
	got := snap.LimitQuery("car", query.CountPredicate{N: 1}, 5, 2)
	want := full.LimitQuery("car", query.CountPredicate{N: 1}, 5, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("LimitQuery diverged between incremental store and full rebuild")
	}
}

// TestSessionCancelDrainsCleanly cancels an unbounded session mid-stream
// while other goroutines hammer Stats and Snapshot, asserting (under -race)
// that shutdown is clean and already-published clips stay queryable.
func TestSessionCancelDrainsCleanly(t *testing.T) {
	sys, ds, cfg := testWorld(t)
	s, err := Start(context.Background(), sys, Options{
		Cameras: []Camera{camera(ds, 4, 0), camera(ds, 5, 0)}, // unbounded
		Cfg:     cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Stats()
				s.Live().Snapshot().CountTracks("car")
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().ClipsIngested < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no clips published within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(stop)
	wg.Wait()

	select {
	case <-s.Done():
	default:
		t.Fatal("Done not closed after Close")
	}
	st := s.Stats()
	if st.ClipsIngested < 2 {
		t.Fatalf("published clips lost on close: %+v", st)
	}
	if got := s.Live().Snapshot().Clips(); int64(got) != st.ClipsIngested {
		t.Fatalf("store has %d clips, stats say %d", got, st.ClipsIngested)
	}
	// Close is idempotent, and Wait after Close reports the cancellation.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Wait(); err != context.Canceled {
		t.Fatalf("Wait after Close = %v, want context.Canceled", err)
	}
}

// TestSessionDropPolicy runs a fast producer against a depth-1 queue with
// shedding enabled and checks the conservation invariant: every emitted
// clip is either published or counted dropped, never lost.
func TestSessionDropPolicy(t *testing.T) {
	sys, ds, cfg := testWorld(t)
	const limit = 12
	s, err := Start(context.Background(), sys, Options{
		Cameras:      []Camera{camera(ds, 6, limit)},
		Cfg:          cfg,
		QueueDepth:   1,
		DropWhenFull: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	c := st.Cameras[0]
	if c.ClipsEmitted != limit {
		t.Fatalf("emitted %d, want %d", c.ClipsEmitted, limit)
	}
	if c.ClipsPublished+c.ClipsDropped != limit || c.Lag != 0 {
		t.Fatalf("conservation violated: %+v", c)
	}
	if int64(s.Live().Snapshot().Clips()) != c.ClipsPublished {
		t.Fatalf("store clips %d != published %d", s.Live().Snapshot().Clips(), c.ClipsPublished)
	}
}

// TestSessionGaugesAndProgress asserts the obs surface: per-camera gauges
// appear in registry snapshots while a session is active, and one
// EventIngestClip arrives per published clip.
func TestSessionGaugesAndProgress(t *testing.T) {
	sys, ds, cfg := testWorld(t)
	var events atomic.Int64
	s, err := Start(context.Background(), sys, Options{
		Cameras: []Camera{camera(ds, 7, 2)},
		Cfg:     cfg,
		Progress: func(e obs.Event) {
			if e.Kind != obs.EventIngestClip {
				t.Errorf("unexpected event kind %q", e.Kind)
			}
			events.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.Default.Snapshot()
	if _, ok := snap.Gauges["ingest.queue_depth"]; !ok {
		t.Error("ingest.queue_depth gauge missing while session active")
	}
	if _, ok := snap.Gauges["ingest.cam0.lag"]; !ok {
		t.Error("per-camera lag gauge missing while session active")
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := events.Load(); got != 2 {
		t.Fatalf("got %d progress events, want 2", got)
	}
	if _, ok := obs.Default.Snapshot().Gauges["ingest.queue_depth"]; ok {
		t.Error("ingest gauges still exported after session ended")
	}
}
