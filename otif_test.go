package otif_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"otif"
)

// trainedPipe builds one small trained pipeline shared by the package's
// integration tests.
var trainedPipe *otif.Pipeline
var trainedCurve []otif.Point

func pipeline(t *testing.T) (*otif.Pipeline, []otif.Point) {
	t.Helper()
	if trainedPipe != nil {
		return trainedPipe, trainedCurve
	}
	pipe, err := otif.Open("caldot1", otif.Options{ClipsPerSet: 3, ClipSeconds: 5})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Train()
	trainedPipe = pipe
	trainedCurve, err = pipe.Tune(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return trainedPipe, trainedCurve
}

func TestOpenUnknownDataset(t *testing.T) {
	if _, err := otif.Open("nope", otif.Options{}); err == nil {
		t.Error("unknown dataset must error")
	}
}

func TestDatasets(t *testing.T) {
	if got := len(otif.Datasets()); got != 7 {
		t.Errorf("datasets = %d, want 7", got)
	}
}

func TestEndToEndWorkflow(t *testing.T) {
	pipe, curve := pipeline(t)
	if len(curve) < 3 {
		t.Fatalf("curve has %d points", len(curve))
	}
	// Workflow of Figure 1: pick a point, extract over the dataset.
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := pipe.Extract(context.Background(), pick.Cfg, otif.Test)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Runtime <= 0 {
		t.Error("zero extraction runtime")
	}
	acc, err := pipe.Accuracy(ts, otif.Test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.2 {
		t.Errorf("test accuracy = %v, suspiciously low", acc)
	}

	// Queries over stored tracks.
	counts := ts.CountTracks("car")
	if len(counts) != 3 {
		t.Fatalf("counts per clip = %d", len(counts))
	}
	movements := pipe.Movements()
	if len(movements) == 0 {
		t.Fatal("caldot1 should expose movements")
	}
	bd := ts.PathBreakdown("car", movements, 160)
	if len(bd) != 3 {
		t.Error("per-clip breakdown size wrong")
	}
	_ = ts.HardBraking(250)
	_ = ts.AvgVisible("car")
	_ = ts.BusyFrames("car", 2, "car", 2)
	lq := ts.LimitQuery("car", otif.CountPredicate{N: 1}, 5, 1)
	if len(lq) != 3 {
		t.Error("limit query per-clip size wrong")
	}
}

// TestLimitQueryAnySeparation asks for separations no clip can hold: each
// clip then answers at most one frame, where the conversion to frames
// used to overflow to no separation at all. A NaN or negative separation
// is none.
func TestLimitQueryAnySeparation(t *testing.T) {
	pipe, curve := pipeline(t)
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := pipe.Extract(context.Background(), pick.Cfg, otif.Test)
	if err != nil {
		t.Fatal(err)
	}
	pred := otif.CountPredicate{N: 1}
	none := ts.LimitQuery("car", pred, 5, 0)
	most := 0
	for _, m := range none {
		most = max(most, len(m))
	}
	if most < 2 {
		t.Fatalf("without separation no clip answers more than %d frames: the test proves nothing", most)
	}
	for _, sec := range []float64{math.Inf(1), 1e300} {
		for clip, m := range ts.LimitQuery("car", pred, 5, sec) {
			if len(m) > 1 {
				t.Errorf("minsep %v s: clip %d answers %d frames, want at most 1", sec, clip, len(m))
			}
		}
	}
	for _, sec := range []float64{math.NaN(), -1} {
		if got := ts.LimitQuery("car", pred, 5, sec); !reflect.DeepEqual(got, none) {
			t.Errorf("minsep %v s answers %v, want the unseparated %v", sec, got, none)
		}
	}
}

func TestTuneBeforeTrainErrors(t *testing.T) {
	pipe, err := otif.Open("caldot1", otif.Options{ClipsPerSet: 1, ClipSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Tune(context.Background()); !errors.Is(err, otif.ErrNotTrained) {
		t.Errorf("Tune before Train: err = %v, want ErrNotTrained", err)
	}
}

func TestPickFastestWithinEmptyCurve(t *testing.T) {
	if _, err := otif.PickFastestWithin(nil, 0.05); !errors.Is(err, otif.ErrEmptyCurve) {
		t.Errorf("empty curve: err = %v, want ErrEmptyCurve", err)
	}
}

func TestCurveAccessor(t *testing.T) {
	pipe, curve := pipeline(t)
	got := pipe.Curve()
	if len(got) != len(curve) {
		t.Error("Curve() should return the last tuning result")
	}
}

func TestExtractBadSet(t *testing.T) {
	pipe, curve := pipeline(t)
	if _, err := pipe.Extract(context.Background(), curve[0].Cfg, otif.SetName("bogus")); err == nil {
		t.Error("bad set name must error")
	}
}

func TestSpeedupAtMatchedAccuracy(t *testing.T) {
	// The central claim in miniature: within the curve, the fastest
	// configuration within 5% of the best accuracy is several times
	// faster than the slowest.
	_, curve := pipeline(t)
	pick, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	slowest := curve[0]
	if pick.Runtime > slowest.Runtime/2 {
		t.Errorf("tuned speedup only %.1fx", slowest.Runtime/pick.Runtime)
	}
}
