package bench

import (
	"bytes"
	"strings"
	"testing"

	"otif/internal/dataset"
	"otif/internal/tuner"
)

// tinySuite trains systems on very small sets: the harness tests verify
// plumbing and qualitative shape, not statistics.
var tiny *Suite

func tinySuite(t *testing.T) *Suite {
	t.Helper()
	if tiny == nil {
		tiny = NewSuite(dataset.SetSpec{Clips: 4, ClipSeconds: 6}, 7)
	}
	return tiny
}

func TestSuiteMemoizesSystems(t *testing.T) {
	s := tinySuite(t)
	a, err := s.System("caldot1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.System("caldot1")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("suite retrained an already trained system")
	}
	if len(a.Curve) == 0 {
		t.Error("no tuning curve")
	}
	// A failure is memoized like a result: the same error value, not a
	// second attempt.
	_, err1 := s.System("nosuch")
	_, err2 := s.System("nosuch")
	if err1 == nil || err1 != err2 {
		t.Errorf("unknown dataset: errors %v and %v, want one memoized error", err1, err2)
	}
}

func TestTrackCurvesIncludeAllMethods(t *testing.T) {
	s := tinySuite(t)
	curves, err := s.TrackCurves("caldot1")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"OTIF": false, "Miris": false, "Chameleon": false,
		"NoScope": false, "CaTDet": false, "CenterTrack": false}
	for _, c := range curves {
		want[c.Method] = true
		if len(c.Points) == 0 {
			t.Errorf("%s has no test points", c.Method)
		}
	}
	for m, ok := range want {
		if !ok {
			t.Errorf("method %s missing from curves", m)
		}
	}
}

func TestTable2ShapeOnOneDataset(t *testing.T) {
	s := tinySuite(t)
	var buf bytes.Buffer
	rows, err := s.Table2(&buf, []string{"caldot1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	row := rows[0]
	otif1, okO := row.OneQuery["OTIF"]
	miris1, okM := row.OneQuery["Miris"]
	if !okO || !okM {
		t.Fatalf("missing OTIF/Miris entries: %v", row.OneQuery)
	}
	// The paper's headline: OTIF extracts all tracks faster than Miris
	// executes one query, and the gap grows at five queries.
	if otif1 >= miris1 {
		t.Errorf("OTIF (%v) not faster than Miris (%v) at 1 query", otif1, miris1)
	}
	if row.FiveQ["Miris"]/row.FiveQ["OTIF"] <= miris1/otif1 {
		t.Error("five-query speedup should exceed one-query speedup (Miris repeats per query)")
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Error("missing table header in output")
	}
}

func TestFastestWithinTol(t *testing.T) {
	curves := []MethodCurve{
		{Method: "A", Points: []tuner.Point{{Runtime: 10, Accuracy: 0.9}, {Runtime: 2, Accuracy: 0.86}}},
		{Method: "B", Points: []tuner.Point{{Runtime: 5, Accuracy: 0.7}}},
	}
	p, ok := FastestWithinTol(curves, "A", 0.05)
	if !ok || p.Runtime != 2 {
		t.Errorf("A pick = %v, %v", p, ok)
	}
	// B never reaches the band.
	if _, ok := FastestWithinTol(curves, "B", 0.05); ok {
		t.Error("B should miss the accuracy band")
	}
	if _, ok := FastestWithinTol(curves, "B", 0.5); !ok {
		t.Error("wide band should admit B")
	}
}

func TestValidate(t *testing.T) {
	s := tinySuite(t)
	var buf bytes.Buffer
	res := s.Validate(&buf)
	if res.ProxySeconds <= 0 || res.WithDecode <= res.ProxySeconds {
		t.Errorf("validate result implausible: %+v", res)
	}
	// Same order of magnitude as the reported ~100s.
	if res.ProxySeconds < 20 || res.ProxySeconds > 2000 {
		t.Errorf("proxy time %v not within an order of magnitude of the paper's 100s", res.ProxySeconds)
	}
}

func TestVariableGapComparable(t *testing.T) {
	s := tinySuite(t)
	var buf bytes.Buffer
	res, err := s.VariableGap(&buf, "caldot1")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Skip("no tuned configuration")
	}
	// The paper found variable-gap accuracy comparable to fixed; allow a
	// generous band on tiny sets.
	if diff := res.Variable.Accuracy - res.Fixed.Accuracy; diff < -0.35 {
		t.Errorf("variable gap much worse than fixed: %v vs %v", res.Variable.Accuracy, res.Fixed.Accuracy)
	}
	if res.Variable.Runtime <= 0 {
		t.Error("zero variable-gap runtime")
	}
}

func TestFigure6Breakdown(t *testing.T) {
	s := tinySuite(t)
	var buf bytes.Buffer
	res, err := s.Figure6(&buf, "caldot1")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Skip("no tuned configuration")
	}
	if res.Preprocessing["train-detector"] <= 0 {
		t.Error("detector training missing from pre-processing breakdown")
	}
	if res.Execution["detect"] <= 0 || res.Execution["decode"] <= 0 {
		t.Errorf("execution breakdown incomplete: %v", res.Execution)
	}
}

func TestBuildFrameQueryChoosesSatisfiableN(t *testing.T) {
	s := tinySuite(t)
	tr, err := s.System("caldot1")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"count", "region", "hotspot"} {
		q := buildFrameQuery(tr, kind)
		if q.Pred == nil {
			t.Errorf("%s: nil predicate", kind)
		}
	}
}
