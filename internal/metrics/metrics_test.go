package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"otif/internal/geom"
)

func TestCountAccuracy(t *testing.T) {
	cases := []struct {
		pred, truth, want float64
	}{
		{10, 10, 1},
		{8, 10, 0.8},
		{12, 10, 0.8},
		{0, 10, 0},
		{30, 10, 0}, // clamped
		{0, 0, 1},
		{3, 0, 0},
	}
	for _, c := range cases {
		if got := CountAccuracy(c.pred, c.truth); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CountAccuracy(%v,%v) = %v, want %v", c.pred, c.truth, got, c.want)
		}
	}
}

func TestCountAccuracyBoundsProperty(t *testing.T) {
	f := func(p, q uint16) bool {
		a := CountAccuracy(float64(p), float64(q))
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMeanCountAccuracy(t *testing.T) {
	got := MeanCountAccuracy([]float64{10, 0}, []float64{10, 10})
	if got != 0.5 {
		t.Errorf("mean = %v, want 0.5", got)
	}
	if MeanCountAccuracy(nil, nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if MeanCountAccuracy([]float64{1}, []float64{1, 2}) != 0 {
		t.Error("mismatched lengths should be 0")
	}
}

func TestAPPerfectDetections(t *testing.T) {
	truths := [][]geom.Rect{
		{{X: 0, Y: 0, W: 10, H: 10}},
		{{X: 50, Y: 50, W: 10, H: 10}, {X: 100, Y: 0, W: 10, H: 10}},
	}
	dets := [][]ScoredBox{
		{{Box: truths[0][0], Score: 0.9}},
		{{Box: truths[1][0], Score: 0.8}, {Box: truths[1][1], Score: 0.7}},
	}
	if got := APAt50(dets, truths); math.Abs(got-1) > 0.02 {
		t.Errorf("perfect AP = %v, want ~1", got)
	}
}

func TestAPMissesAndFalsePositives(t *testing.T) {
	truths := [][]geom.Rect{
		{{X: 0, Y: 0, W: 10, H: 10}, {X: 50, Y: 0, W: 10, H: 10}},
	}
	// One correct detection, one false positive, one miss.
	dets := [][]ScoredBox{
		{
			{Box: truths[0][0], Score: 0.9},
			{Box: geom.Rect{X: 200, Y: 200, W: 10, H: 10}, Score: 0.8},
		},
	}
	got := APAt50(dets, truths)
	if got >= 0.9 || got <= 0.1 {
		t.Errorf("AP = %v, want intermediate", got)
	}
}

func TestAPEmptyCases(t *testing.T) {
	if got := APAt50(nil, nil); got != 1 {
		t.Errorf("no truth, no dets: AP = %v, want 1", got)
	}
	dets := [][]ScoredBox{{{Box: geom.Rect{W: 5, H: 5}, Score: 1}}}
	if got := APAt50(dets, [][]geom.Rect{{}}); got != 0 {
		t.Errorf("no truth but detections: AP = %v, want 0", got)
	}
}

func TestAPDuplicateDetectionsPenalized(t *testing.T) {
	// A duplicate ranked between two true positives lowers the precision
	// at full recall, so interpolated AP drops.
	truth := [][]geom.Rect{{
		{X: 0, Y: 0, W: 10, H: 10},
		{X: 100, Y: 0, W: 10, H: 10},
	}}
	clean := [][]ScoredBox{{
		{Box: truth[0][0], Score: 0.9},
		{Box: truth[0][1], Score: 0.8},
	}}
	dup := [][]ScoredBox{{
		{Box: truth[0][0], Score: 0.9},
		{Box: truth[0][0].Translate(1, 0), Score: 0.85}, // duplicate of GT 0
		{Box: truth[0][1], Score: 0.8},
	}}
	if APAt50(dup, truth) >= APAt50(clean, truth) {
		t.Error("duplicate detection ranked above a true positive must reduce AP")
	}
}

func TestPRCurve(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.3, 0.1}
	labels := []bool{true, true, false, true}
	pts := PRCurve(scores, labels, []float64{0.5})
	if len(pts) != 1 {
		t.Fatal("one threshold -> one point")
	}
	// At 0.5: TP=2, FP=0, FN=1.
	if pts[0].Precision != 1 {
		t.Errorf("precision = %v", pts[0].Precision)
	}
	if math.Abs(pts[0].Recall-2.0/3) > 1e-12 {
		t.Errorf("recall = %v", pts[0].Recall)
	}
}

func TestPRCurveMonotoneRecall(t *testing.T) {
	f := func(seed int64) bool {
		scores := make([]float64, 50)
		labels := make([]bool, 50)
		s := uint64(seed)
		for i := range scores {
			s = s*6364136223846793005 + 1442695040888963407
			scores[i] = float64(s%1000) / 1000
			labels[i] = s%3 == 0
		}
		ths := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
		pts := PRCurve(scores, labels, ths)
		for i := 1; i < len(pts); i++ {
			if pts[i].Recall > pts[i-1].Recall+1e-12 {
				return false // recall must fall as threshold rises
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
