package baselines

import (
	"math"
	"sync"
	"testing"

	"otif/internal/core"
	"otif/internal/dataset"
	"otif/internal/obs"
	"otif/internal/query"
	"otif/internal/tuner"
)

var cachedSys *core.System
var cachedMetric core.Metric

func trainedSystem(t *testing.T) (*core.System, core.Metric) {
	t.Helper()
	if cachedSys != nil {
		return cachedSys, cachedMetric
	}
	ds, err := dataset.Build("caldot1", dataset.SetSpec{Clips: 3, ClipSeconds: 5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(ds)
	metric := core.MetricFor(ds)
	best, _ := tuner.SelectBest(sys, metric)
	sys.FinishTraining(best, 42)
	cachedSys, cachedMetric = sys, metric
	return sys, metric
}

func TestAllBaselinesProduceCandidates(t *testing.T) {
	sys, metric := trainedSystem(t)
	for _, m := range All() {
		cands := m.Tune(sys, metric)
		if len(cands) == 0 {
			t.Errorf("%s produced no candidates", m.Name())
			continue
		}
		for i, c := range cands {
			if c.ValRuntime <= 0 {
				t.Errorf("%s candidate %d has zero runtime", m.Name(), i)
			}
			if c.ValAccuracy < 0 || c.ValAccuracy > 1 {
				t.Errorf("%s candidate %d accuracy out of range: %v", m.Name(), i, c.ValAccuracy)
			}
		}
		// Candidates run on a fresh set.
		res := cands[0].Run(sys.DS.Test)
		if res.Runtime <= 0 {
			t.Errorf("%s test run has zero runtime", m.Name())
		}
	}
}

func TestMirisIsQueryDriven(t *testing.T) {
	sys, metric := trainedSystem(t)
	cands := NewMiris().Tune(sys, metric)
	for _, c := range cands {
		if c.QueryFraction != 1 {
			t.Errorf("Miris QueryFraction = %v, want 1 (per-query execution)", c.QueryFraction)
		}
	}
}

// TestMirisClipSpans: a Miris candidate tracks each clip in the run.clip
// span core's clip-set runner opened for it, so a traced run over N clips
// records exactly N run.clip spans, each a child of the run's run.set.
func TestMirisClipSpans(t *testing.T) {
	sys, metric := trainedSystem(t)
	cand := (&Miris{Gaps: []int{4}}).Tune(sys, metric)[0]
	clips := sys.DS.Test

	rec := obs.EnableTracing(1 << 12)
	defer obs.SetRecorder(nil)
	cand.Run(clips)

	var setIDs []uint64
	var parents []uint64
	for _, s := range rec.Snapshot() {
		switch s.Name {
		case "run.set":
			setIDs = append(setIDs, s.ID)
		case "run.clip":
			parents = append(parents, s.Parent)
		}
	}
	if len(setIDs) != 1 {
		t.Fatalf("recorded %d run.set spans, want 1", len(setIDs))
	}
	if len(parents) != len(clips) {
		t.Errorf("recorded %d run.clip spans over %d clips, want one per clip", len(parents), len(clips))
	}
	for _, p := range parents {
		if p != setIDs[0] {
			t.Errorf("run.clip parent = %d, want the run.set %d", p, setIDs[0])
		}
	}
}

func TestMirisRefinementExtendsTracks(t *testing.T) {
	sys, metric := trainedSystem(t)
	m := NewMiris()
	cands := m.Tune(sys, metric)
	// Reasonable accuracy: refinement should let even a gap-8 candidate
	// classify paths.
	bestAcc := 0.0
	for _, c := range cands {
		if c.ValAccuracy > bestAcc {
			bestAcc = c.ValAccuracy
		}
	}
	if bestAcc < 0.5 {
		t.Errorf("Miris best accuracy = %v, suspiciously low", bestAcc)
	}
}

func TestChameleonCandidatesGetFaster(t *testing.T) {
	sys, metric := trainedSystem(t)
	cands := NewChameleon().Tune(sys, metric)
	if len(cands) < 2 {
		t.Fatalf("chameleon produced %d candidates", len(cands))
	}
	if cands[len(cands)-1].ValRuntime >= cands[0].ValRuntime {
		t.Error("hill climbing should find faster configurations")
	}
}

func TestNoScopeThresholdZeroEqualsFullDetection(t *testing.T) {
	sys, metric := trainedSystem(t)
	ns := NewNoScope()
	cands := ns.Tune(sys, metric)
	// Threshold 0 processes everything -> best accuracy of the sweep.
	first := cands[0]
	for i, c := range cands[1:] {
		if c.ValAccuracy > first.ValAccuracy+0.1 {
			t.Errorf("higher threshold (%v) beat full detection by a lot", ns.Thresholds[i+1])
		}
	}
	// The extreme threshold should be cheaper than full detection.
	last := cands[len(cands)-1]
	if last.ValRuntime >= first.ValRuntime {
		t.Error("skipping frames must reduce runtime")
	}
}

func TestCenterTrackPerformsPoorlyAtReducedRate(t *testing.T) {
	sys, metric := trainedSystem(t)
	ct := NewCenterTrack()
	cands := ct.Tune(sys, metric)
	// Find its best native-rate accuracy and its best gap-4 accuracy;
	// without gap augmentation the reduced-rate accuracy should drop.
	// Candidates sweep every gap for each scale.
	var nativeBest, gap4Best float64
	for i, c := range cands {
		switch ct.Gaps[i%len(ct.Gaps)] {
		case 1:
			if c.ValAccuracy > nativeBest {
				nativeBest = c.ValAccuracy
			}
		case 4:
			if c.ValAccuracy > gap4Best {
				gap4Best = c.ValAccuracy
			}
		}
	}
	if nativeBest == 0 {
		t.Fatal("no native-rate candidates")
	}
	if gap4Best > nativeBest+0.05 {
		t.Errorf("native-rate tracker unexpectedly better at gap 4 (%v vs %v)", gap4Best, nativeBest)
	}
}

func TestFrameQueryMachinery(t *testing.T) {
	sys, _ := trainedSystem(t)
	q := FrameQuery{
		Name: "count", Category: "car",
		Pred:  query.CountPredicate{N: 1},
		Limit: 3, MinSepSec: 1,
	}
	ct := sys.DS.Val[0]
	matched := false
	for f := 0; f < ct.Clip.Len(); f++ {
		if TruthSatisfies(ct, q, f) {
			matched = true
			break
		}
	}
	if !matched {
		t.Skip("no cars in clip")
	}
	refs := []frameRef{{0, 0}, {0, 5}, {0, 100}, {1, 0}}
	out := selectSeparated(refs, 3, 50, nil)
	if len(out) != 3 {
		t.Fatalf("selectSeparated = %v", out)
	}
	// (0,5) conflicts with (0,0) at separation 50.
	for _, r := range out {
		if r == (frameRef{0, 5}) {
			t.Error("separation not enforced")
		}
	}
}

func TestBlazeItFrameQuery(t *testing.T) {
	sys, _ := trainedSystem(t)
	q := FrameQuery{
		Name: "count", Category: "car",
		Pred:  query.CountPredicate{N: 2},
		Limit: 3, MinSepSec: 2,
	}
	res := NewBlazeIt().RunFrameQuery(sys, q, sys.DS.Test)
	if res.PreprocessTime <= 0 {
		t.Error("BlazeIt pre-processing must cost something")
	}
	if res.Returned > q.Limit {
		t.Error("limit exceeded")
	}
	if res.Returned > 0 && res.Accuracy < 0.3 {
		t.Errorf("BlazeIt accuracy = %v, suspiciously low", res.Accuracy)
	}
}

func TestTASTIFrameQueryAndEmbeddingReuse(t *testing.T) {
	sys, _ := trainedSystem(t)
	q := FrameQuery{
		Name: "count", Category: "car",
		Pred:  query.CountPredicate{N: 2},
		Limit: 3, MinSepSec: 2,
	}
	ta := NewTASTI()
	emb, pre := ta.Embeddings(sys, sys.DS.Test)
	if pre <= 0 {
		t.Fatal("embedding pass must cost something")
	}
	res := ta.RunFrameQuery(sys, q, sys.DS.Test, emb, pre)
	if res.PreprocessTime != pre {
		t.Error("reused embeddings should keep the given pre-processing time")
	}
	if res.Returned > q.Limit {
		t.Error("limit exceeded")
	}
	if res.DetectorApps <= 0 {
		t.Error("TASTI must apply the detector at query time")
	}
}

func TestOTIFFramesReusesTracks(t *testing.T) {
	sys, _ := trainedSystem(t)
	cfg := sys.Best
	cfg.Gap = 2
	of := NewOTIFFrames(sys.RunSet(cfg, sys.DS.Test))
	q := FrameQuery{
		Name: "count", Category: "car",
		Pred:  query.CountPredicate{N: 1},
		Limit: 3, MinSepSec: 2,
	}
	r1 := of.RunFrameQuery(sys, q, sys.DS.Test)
	if r1.PreprocessTime <= 0 {
		t.Fatal("OTIF pre-processing should cost something")
	}
	// Second query: no new pre-processing, tiny query time.
	q2 := q
	q2.Pred = query.CountPredicate{N: 2}
	r2 := of.RunFrameQuery(sys, q2, sys.DS.Test)
	if r2.PreprocessTime != r1.PreprocessTime {
		t.Error("tracks must be reused across queries")
	}
	if r2.QueryTime >= r1.PreprocessTime/10 {
		t.Errorf("query time %v should be far below pre-processing %v", r2.QueryTime, r1.PreprocessTime)
	}
}

// TestOTIFFramesAnySeparation: a separation longer than any clip, +Inf
// included, asks every frame-level method for at most one frame per clip.
// Converted with a bare int(), +Inf seconds became math.MinInt64 frames,
// which is no separation.
func TestOTIFFramesAnySeparation(t *testing.T) {
	sys, _ := trainedSystem(t)
	of := NewOTIFFrames(sys.RunSet(sys.Best, sys.DS.Test))
	methods := map[string]func(FrameQuery) FrameLevelResult{
		"OTIF":    func(q FrameQuery) FrameLevelResult { return of.RunFrameQuery(sys, q, sys.DS.Test) },
		"BlazeIt": func(q FrameQuery) FrameLevelResult { return NewBlazeIt().RunFrameQuery(sys, q, sys.DS.Test) },
		"TASTI":   func(q FrameQuery) FrameLevelResult { return NewTASTI().RunFrameQuery(sys, q, sys.DS.Test, nil, 0) },
	}
	for name, run := range methods {
		for _, sep := range []float64{math.Inf(1), 1e300} {
			q := FrameQuery{Name: "count", Category: "car", Pred: query.CountPredicate{N: 1}, Limit: 10, MinSepSec: sep}
			if res := run(q); res.Returned == 0 || res.Returned > len(sys.DS.Test) {
				t.Errorf("%s, MinSepSec %v: %d frames over %d clips, want 1 to %d", name, sep, res.Returned, len(sys.DS.Test), len(sys.DS.Test))
			}
		}
	}
}

// TestCenterTrackLeavesSystemUntouched: CenterTrack runs its native-rate
// matching model without writing the shared System, so a Miris candidate
// running at the same time on the same System (Miris tracks with the
// System's own pair model) tracks exactly as it does alone, and sys.Pair
// never changes.
func TestCenterTrackLeavesSystemUntouched(t *testing.T) {
	sys, metric := trainedSystem(t)
	pair := sys.Pair
	centerTrack := NewCenterTrack().Tune(sys, metric)
	miris := NewMiris().Tune(sys, metric)[2]
	want := tracksDigest(miris.Run(sys.DS.Test).PerClip)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range centerTrack[len(centerTrack)-2:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Run(sys.DS.Test)
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		if got := tracksDigest(miris.Run(sys.DS.Test).PerClip); got != want {
			t.Errorf("run %d: Miris tracks %#x beside CenterTrack, %#x alone", i, got, want)
		}
		if sys.Pair != pair {
			t.Errorf("run %d: sys.Pair changed while CenterTrack ran", i)
		}
	}
	close(stop)
	wg.Wait()
	if sys.Pair != pair {
		t.Error("sys.Pair changed after CenterTrack ran")
	}
}
