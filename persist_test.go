package otif_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"otif"
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

// TestTrackSetPersistence saves a track set as segment files and loads it
// back from nothing but the directory, and pins LoadTrackSets' failure
// modes: a directory without a segment file, and a file that does not
// decode, which the error names.
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
	dir := t.TempDir()
	paths, err := ts.ExportSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 3 clips fit one segment at the size a live store seals at.
	if len(paths) != 1 || filepath.Base(paths[0]) != "seg-00000.otifseg" {
		t.Fatalf("ExportSegments wrote %v, want one seg-00000.otifseg", paths)
	}
	sets, err := otif.LoadTrackSets(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := sets["caldot1"]
	if len(sets) != 1 || got == nil || got.Dataset != "caldot1" {
		t.Fatalf("LoadTrackSets = %v, want one set named caldot1 from the header", sets)
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
	// The separation in seconds converts at the header's frame rate.
	la := ts.LimitQuery("car", otif.CountPredicate{N: 1}, 3, 1)
	lb := got.LimitQuery("car", otif.CountPredicate{N: 1}, 3, 1)
	if !reflect.DeepEqual(la, lb) {
		t.Errorf("limit query on the loaded set = %v, want %v", lb, la)
	}

	for name, dir := range map[string]string{
		"empty":   t.TempDir(),
		"missing": filepath.Join(t.TempDir(), "missing"),
	} {
		if _, err := otif.LoadTrackSets(dir); !errors.Is(err, otif.ErrNoSegments) {
			t.Errorf("LoadTrackSets over a %s directory: err = %v, want ErrNoSegments", name, err)
		}
	}
	bad := filepath.Join(t.TempDir(), "seg-00000.otifseg")
	if err := os.WriteFile(bad, []byte("not a segment file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := otif.LoadTrackSets(filepath.Dir(bad)); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("LoadTrackSets over a garbage file: err = %v, want one naming %s", err, bad)
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

// TestTrackSetRoundTripsAnswerEveryKind pins the way a track set leaves
// the process: Extract -> ExportSegments -> LoadTrackSets has the extracted
// set's manifest and answers all nine query kinds exactly as it does.
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

	dir := t.TempDir()
	if _, err := ts.ExportSegments(dir); err != nil {
		t.Fatal(err)
	}
	sets, err := otif.LoadTrackSets(dir)
	if err != nil {
		t.Fatal(err)
	}
	reread := sets[ts.Dataset]
	if len(sets) != 1 || reread == nil {
		t.Fatalf("LoadTrackSets found datasets %v, want only %q", sets, ts.Dataset)
	}
	if reread.Dataset != ts.Dataset || reread.Context() != ts.Context() {
		t.Errorf("reread header = %q %+v, want %q %+v", reread.Dataset, reread.Context(), ts.Dataset, ts.Context())
	}
	if got, want := reread.Manifest(), ts.Manifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("reread manifest = %+v, extracted set's = %+v", got, want)
	}
	check("segment files", reread.Querier)
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
