package bench

import (
	"bytes"
	"context"
	"hash/fnv"
	"io"
	"log/slog"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"otif/internal/core"
	"otif/internal/dataset"
	"otif/internal/obs"
	"otif/internal/query"
)

// tuneCounter counts the Tune calls that finish while it is the process
// logger, and the curve points they return.
type tuneCounter struct {
	tunes, points *atomic.Int64
}

func (h tuneCounter) Enabled(context.Context, slog.Level) bool { return true }
func (h tuneCounter) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h tuneCounter) WithGroup(string) slog.Handler            { return h }
func (h tuneCounter) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "otif: tune finished" {
		return nil
	}
	h.tunes.Add(1)
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "points" {
			h.points.Add(a.Value.Int64())
		}
		return true
	})
	return nil
}

// testSetMetric counts the accuracy evaluations on one clip set.
type testSetMetric struct {
	core.Metric
	set   []*dataset.ClipTruth
	evals *atomic.Int64
}

func (m testSetMetric) Accuracy(perClip [][]*query.Track, clips []*dataset.ClipTruth) float64 {
	if len(clips) > 0 && &clips[0] == &m.set[0] {
		m.evals.Add(1)
	}
	return m.Metric.Accuracy(perClip, clips)
}

// TestTablesEvaluateOTIFCurveOnce runs Tables 2, 3 and 4 on one dataset and
// counts what ran. Tune runs four times: the suite's own run and the three
// ablation variants, whose full-system row is the suite's curve. The test
// set scores each configuration of the OTIF curve once, beside each
// baseline point and each configuration of the three ablation curves.
// Table 3 extracts no OTIF clip: it answers from the tracks of the pick the
// curve's test-set evaluation kept. (Before the OTIF test points were
// memoized, Table 3 and Table 4 each evaluated the curve again, and Table 4
// re-ran the suite's Tune; before the pick's tracks were kept, Table 3
// extracted the pick once more.) On amd64 it also compares an FNV-64a of
// each table's text with the one recorded before the clip working set
// moved into core: a refactor must leave the tables byte-identical.
func TestTablesEvaluateOTIFCurveOnce(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("table hashes were recorded on amd64")
	}
	var tunes, points, evals atomic.Int64
	prev := obs.Log()
	obs.SetLogger(slog.New(tuneCounter{&tunes, &points}))
	defer obs.SetLogger(prev)

	s := NewSuite(dataset.SetSpec{Clips: 2, ClipSeconds: 4}, 7)
	tr, err := s.System("caldot1")
	if err != nil {
		t.Fatal(err)
	}
	if tunes.Load() != 1 {
		t.Fatalf("training the suite's system ran Tune %d times, want 1", tunes.Load())
	}
	tr.Metric = testSetMetric{Metric: tr.Metric, set: tr.Sys.DS.Test, evals: &evals}
	ds := []string{"caldot1"}
	var table2, table3, table4 bytes.Buffer
	if _, err := s.Table2(&table2, ds); err != nil {
		t.Fatal(err)
	}
	clips := obs.Default.Counter("run.clips")
	before := clips.Value()
	if _, err := s.Table3(&table3, ds); err != nil {
		t.Fatal(err)
	}
	if got := clips.Value() - before; got != 0 {
		t.Errorf("Table 3 extracted %d clips after Table 2, want 0: its OTIF pick's test-set tracks are the curve's", got)
	}
	ablationPoints := -points.Load()
	if _, err := s.Table4(&table4, ds); err != nil {
		t.Fatal(err)
	}
	ablationPoints += points.Load()

	if got := tunes.Load(); got != 4 {
		t.Errorf("Tune ran %d times, want 4: the suite's run and three ablation variants", got)
	}
	curves, err := s.TrackCurves("caldot1")
	if err != nil {
		t.Fatal(err)
	}
	baseline := 0
	for _, c := range curves[1:] {
		baseline += len(c.Points)
	}
	want := int64(len(tr.Curve)+baseline) + ablationPoints
	if got := evals.Load(); got != want {
		t.Errorf("%d test-set evaluations, want %d: the OTIF curve's %d once, %d baseline points, %d ablation points",
			got, want, len(tr.Curve), baseline, ablationPoints)
	}
	for _, tb := range []struct {
		name string
		text *bytes.Buffer
		want uint64
	}{
		{"Table 2", &table2, 0x313df0fbc91d4a08},
		{"Table 3", &table3, 0x704e8ba897e2fe62},
		{"Table 4", &table4, 0x3d979d9b37958f10},
	} {
		h := fnv.New64a()
		h.Write(tb.text.Bytes())
		if got := h.Sum64(); got != tb.want {
			t.Errorf("%s hashes to %#x, want %#x:\n%s", tb.name, got, tb.want, tb.text.String())
		}
	}
}

// TestFigure6AfterTable4 prints Figure 6 after Table 4, whose ablation
// Tunes charge the same system's accountant, and compares it with Figure 6
// on a fresh suite: the pre-processing it reports is OTIF's own.
func TestFigure6AfterTable4(t *testing.T) {
	spec := dataset.SetSpec{Clips: 2, ClipSeconds: 4}
	var fresh, after bytes.Buffer
	want, err := NewSuite(spec, 7).Figure6(&fresh, "caldot1")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(spec, 7)
	if _, err := s.Table4(io.Discard, []string{"caldot1"}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Figure6(&after, "caldot1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || after.String() != fresh.String() {
		t.Errorf("Figure 6 after Table 4:\n%s\nwant, as on a fresh suite:\n%s", after.String(), fresh.String())
	}
}
