package otif_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"otif"
	"otif/internal/persist"
	"otif/internal/store"
)

func TestPipelinePersistenceRoundtrip(t *testing.T) {
	pipe, curve := pipeline(t)
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	var bundle bytes.Buffer
	if err := pipe.SaveModels(&bundle); err != nil {
		t.Fatal(err)
	}
	if bundle.Len() == 0 {
		t.Fatal("empty bundle")
	}

	pipe2, err := otif.Open("caldot1", otif.Options{ClipsPerSet: 3, ClipSeconds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe2.LoadModels(bytes.NewReader(bundle.Bytes())); err != nil {
		t.Fatal(err)
	}

	a, err := pipe.Extract(context.Background(), pick.Cfg, otif.Test)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipe2.Extract(context.Background(), pick.Cfg, otif.Test)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime {
		t.Errorf("loaded pipeline runtime %v != original %v", b.Runtime, a.Runtime)
	}
	ca, cb := a.CountTracks("car"), b.CountTracks("car")
	for i := range ca {
		if ca[i] != cb[i] {
			t.Errorf("clip %d: loaded pipeline counts %d != %d", i, cb[i], ca[i])
		}
	}
}

func TestLoadModelsWrongDataset(t *testing.T) {
	pipe, _ := pipeline(t)
	var bundle bytes.Buffer
	if err := pipe.SaveModels(&bundle); err != nil {
		t.Fatal(err)
	}
	other, err := otif.Open("tokyo", otif.Options{ClipsPerSet: 3, ClipSeconds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadModels(bytes.NewReader(bundle.Bytes())); err == nil {
		t.Error("loading a caldot1 bundle into tokyo must fail")
	}
}

func TestTrackSetPersistence(t *testing.T) {
	pipe, curve := pipeline(t)
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := pipe.Extract(context.Background(), pick.Cfg, otif.Test)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := ts.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := otif.ReadTrackSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a, b := ts.CountTracks(""), got.CountTracks("")
	if len(a) != len(b) {
		t.Fatal("clip counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("clip %d: %d vs %d tracks", i, a[i], b[i])
		}
	}
	// Frame-level queries work identically on the reloaded set.
	la := ts.LimitQuery("car", otif.CountPredicate{N: 1}, 3, 1)
	lb := got.LimitQuery("car", otif.CountPredicate{N: 1}, 3, 1)
	for i := range la {
		if len(la[i]) != len(lb[i]) {
			t.Errorf("clip %d: limit query %d vs %d matches", i, len(la[i]), len(lb[i]))
		}
	}
}

// TestTrackSetV2SelfDescribing asserts the track format's contract: a file
// written by WriteTo reloads with zero positional arguments, carrying its
// clip geometry and dataset name in the header, and answers queries
// identically to the original set.
func TestTrackSetV2SelfDescribing(t *testing.T) {
	pipe, curve := pipeline(t)
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := pipe.Extract(context.Background(), pick.Cfg, otif.Test)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ts.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := otif.ReadTrackSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset != "caldot1" {
		t.Errorf("Dataset from header = %q, want caldot1", got.Dataset)
	}
	a, b := ts.CountTracks("car"), got.CountTracks("car")
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("clip %d: %d vs %d car tracks", i, a[i], b[i])
		}
	}
	// Frame-window queries must work without any caller-supplied context:
	// the header's geometry drives the sweep.
	la := ts.LimitQuery("car", otif.CountPredicate{N: 1}, 3, 1)
	lb := got.LimitQuery("car", otif.CountPredicate{N: 1}, 3, 1)
	for i := range la {
		if len(la[i]) != len(lb[i]) {
			t.Errorf("clip %d: limit query %d vs %d matches on header-described set", i, len(la[i]), len(lb[i]))
		}
	}
}

// nineKinds answers every query kind from one store, the limit query with
// its separation in frames (the store's own method, the same for every
// source).
func nineKinds(q store.Querier, movements []otif.Movement) map[string]any {
	ctx := q.Context()
	w, h := float64(ctx.NomW), float64(ctx.NomH)
	region := otif.Polygon{{X: 0.1 * w, Y: 0.1 * h}, {X: 0.9 * w, Y: 0.1 * h}, {X: 0.9 * w, Y: 0.9 * h}, {X: 0.1 * w, Y: 0.9 * h}}
	return map[string]any{
		"count":      q.CountTracks("car"),
		"breakdown":  q.PathBreakdown("car", movements, 0.22*w),
		"limit":      q.LimitQuery("car", otif.CountPredicate{N: 1}, 3, ctx.FPS),
		"avgvisible": q.AvgVisible("car"),
		"busy":       q.BusyFrames("car", 1, "", 2),
		"cooccur":    q.CoOccurrences("", 0.3*w),
		"dwell":      q.DwellTime("car", region),
		"braking":    q.HardBraking(50),
		"speeding":   q.Speeding(10),
	}
}

// TestTrackSetRoundTripsAnswerEveryKind pins both ways a track set leaves
// the process: Extract -> WriteTo -> ReadTrackSet and Extract ->
// ExportSegments -> OpenSegmentsDir answer all nine query kinds exactly as
// the extracted set does.
func TestTrackSetRoundTripsAnswerEveryKind(t *testing.T) {
	pipe, curve := pipeline(t)
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := pipe.Extract(context.Background(), pick.Cfg, otif.Test)
	if err != nil {
		t.Fatal(err)
	}
	want := nineKinds(ts.Querier, pipe.Movements())
	for kind, v := range want {
		if reflect.ValueOf(v).Len() != ts.Clips() {
			t.Fatalf("%s answered %d clips, the set has %d", kind, reflect.ValueOf(v).Len(), ts.Clips())
		}
	}
	cars := 0
	for _, n := range want["count"].([]int) {
		cars += n
	}
	if cars == 0 {
		t.Fatal("extraction found no car: every comparison below would be vacuous")
	}
	check := func(source string, q store.Querier) {
		t.Helper()
		for kind, got := range nineKinds(q, pipe.Movements()) {
			if !reflect.DeepEqual(got, want[kind]) {
				t.Errorf("%s: %s = %v, extracted set answers %v", source, kind, got, want[kind])
			}
		}
	}

	var buf bytes.Buffer
	if _, err := ts.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	reread, err := otif.ReadTrackSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if reread.Dataset != ts.Dataset || reread.Context() != ts.Context() {
		t.Errorf("reread header = %q %+v, want %q %+v", reread.Dataset, reread.Context(), ts.Dataset, ts.Context())
	}
	check("track file", reread.Querier)

	dir := t.TempDir()
	if paths, err := ts.ExportSegments(dir, 2); err != nil || len(paths) != 2 {
		t.Fatalf("ExportSegments = %v, %v; want 2 files for 3 clips", paths, err)
	}
	shards, err := store.OpenSegmentsDir(dir, store.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[ts.Dataset] == nil {
		t.Fatalf("OpenSegmentsDir found datasets %v, want only %q", shards, ts.Dataset)
	}
	check("segment files", shards[ts.Dataset])
}

// TestTrackSetV1Rejected asserts the retired headerless format is refused
// by its magic rather than loaded with zero-length clips.
func TestTrackSetV1Rejected(t *testing.T) {
	v1 := append([]byte("OTIFTRK1"), 1, 0, 0, 0) // magic, version 1, then the body
	v1 = append(v1, make([]byte, 12)...)         // zero clips and a checksum
	if _, err := otif.ReadTrackSet(bytes.NewReader(v1)); !errors.Is(err, persist.ErrBadMagic) {
		t.Errorf("OTIFTRK1 file: err = %v, want persist.ErrBadMagic", err)
	}
}

func TestSaveModelsBeforeTrainErrors(t *testing.T) {
	pipe, err := otif.Open("caldot1", otif.Options{ClipsPerSet: 1, ClipSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipe.SaveModels(&buf); !errors.Is(err, otif.ErrNotTrained) {
		t.Errorf("SaveModels before Train: err = %v, want ErrNotTrained", err)
	}
	if buf.Len() != 0 {
		t.Error("SaveModels wrote bytes before failing")
	}
}

func TestAnalyticsQueries(t *testing.T) {
	pipe, curve := pipeline(t)
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := pipe.Extract(context.Background(), pick.Cfg, otif.Test)
	if err != nil {
		t.Fatal(err)
	}

	// Speeding at an impossible threshold finds nothing; at zero it finds
	// every track of every clip.
	none := ts.Speeding(1e12)
	for _, clip := range none {
		if len(clip) != 0 {
			t.Error("impossible speed threshold matched tracks")
		}
	}
	all := ts.Speeding(0)
	counts := ts.CountTracks("")
	for i, clip := range all {
		if len(clip) != counts[i] {
			t.Errorf("clip %d: speeding(0) = %d, tracks = %d", i, len(clip), counts[i])
		}
	}

	// Dwell time inside the whole frame equals each track's duration.
	nomW := float64(pipe.System().DS.Cfg.NomW)
	nomH := float64(pipe.System().DS.Cfg.NomH)
	whole := otif.Polygon{
		{X: -1, Y: -1}, {X: nomW + 1, Y: -1},
		{X: nomW + 1, Y: nomH + 1}, {X: -1, Y: nomH + 1},
	}
	dw := ts.DwellTime("", whole)
	for i, clip := range dw {
		if len(clip) != counts[i] {
			t.Errorf("clip %d: dwell entries %d, tracks %d", i, len(clip), counts[i])
		}
	}

	// Co-occurrences at a huge radius >= co-occurrences at a tiny radius.
	big := ts.CoOccurrences("", 1e9)
	small := ts.CoOccurrences("", 1)
	for i := range big {
		if big[i] < small[i] {
			t.Errorf("clip %d: co-occurrence monotonicity violated", i)
		}
	}

	// TrackSpeed on a real track is positive.
	if st := ts.TrackSpeed(ts.Tracks(0)[0]); st.Mean <= 0 {
		t.Error("zero mean speed for a moving track")
	}
}
