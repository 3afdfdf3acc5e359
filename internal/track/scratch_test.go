package track

import (
	"math/rand"
	"testing"

	"otif/internal/costmodel"
	"otif/internal/detect"
	"otif/internal/geom"
)

// TestAssignScratchMatchesPackageFuncs proves the scratch-backed Hungarian
// solver returns exactly what the allocating package functions return,
// including across reuse of one scratch for differently shaped problems.
func TestAssignScratchMatchesPackageFuncs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var s AssignScratch
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = rng.Float64() * 10
				if rng.Intn(4) == 0 {
					cost[i][j] = 1e6 // blocked
				}
			}
		}
		want := AssignWithThreshold(cost, 5, 1e6)
		got := s.AssignWithThreshold(cost, 5, 1e6)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d != %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d row %d: %d != %d (cost %v)", trial, i, got[i], want[i], cost)
			}
		}
	}
}

// TestAssignScratchZeroAlloc pins the assignment hot path: once warmed, a
// scratch-backed solve allocates nothing.
func TestAssignScratchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cost := make([][]float64, 6)
	for i := range cost {
		cost[i] = make([]float64, 4) // n > m exercises the transpose path
		for j := range cost[i] {
			cost[i][j] = rng.Float64()
		}
	}
	var s AssignScratch
	s.AssignWithThreshold(cost, 5, 1e6) // warm the buffers
	if n := testing.AllocsPerRun(100, func() { s.AssignWithThreshold(cost, 5, 1e6) }); n != 0 {
		t.Errorf("AssignScratch.AssignWithThreshold allocates %v per op, want 0", n)
	}
}

// TestAppendFeaturesMatchOriginals proves the append-style feature
// builders produce bit-identical vectors to the allocating originals.
func TestAppendFeaturesMatchOriginals(t *testing.T) {
	d1 := detect.Detection{FrameIdx: 4, Box: geom.Rect{X: 30, Y: 40, W: 50, H: 24}, Score: 0.8, AppMean: 120, AppStd: 30}
	d2 := detect.Detection{FrameIdx: 8, Box: geom.Rect{X: 44, Y: 47, W: 52, H: 25}, Score: 0.7, AppMean: 118, AppStd: 28}
	d3 := detect.Detection{FrameIdx: 12, Box: geom.Rect{X: 60, Y: 55, W: 51, H: 26}, Score: 0.9, AppMean: 121, AppStd: 29}

	want := DetFeatures(d2, 400, 200, 10, 4)
	got := AppendDetFeatures(nil, d2, 400, 200, 10, 4)
	requireSame(t, "DetFeatures", got, want)

	want = PairFeatures(d1, d2, 400, 200, 10, 4)
	got = AppendPairFeatures(nil, d1, d2, 400, 200, 10, 4)
	requireSame(t, "PairFeatures", got, want)

	prefix := []detect.Detection{d1, d2}
	want = MotionFeatures(prefix, d3, 400, 200)
	got = AppendMotionFeatures(nil, prefix, d3, 400, 200)
	requireSame(t, "MotionFeatures", got, want)
}

func requireSame(t *testing.T, what string, got []float64, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: %v != %v (must be bit-identical)", what, i, got[i], want[i])
		}
	}
}

// TestScratchPoolRecycles pins the pooling contract: a tracker's Finish
// returns its scratch, and a later tracker reuses it with its grown
// buffers intact (observable through the pool counters). sync.Pool may
// drop items at any time — the race detector does so deliberately — so the
// test retries and only skips if the pool never returns a scratch.
func TestScratchPoolRecycles(t *testing.T) {
	hit0, miss0 := metScratchHit.Value(), metScratchMiss.Value()
	reused := false
	for i := 0; i < 100 && !reused; i++ {
		s1 := getScratch()
		grow(&s1.usedDet, 64)
		putScratch(s1)
		s2 := getScratch()
		if s2 == s1 {
			if cap(s2.usedDet) < 64 {
				t.Fatalf("pooled scratch lost its grown buffers: cap %d", cap(s2.usedDet))
			}
			reused = true
		}
		putScratch(s2)
	}
	if metScratchHit.Value() == hit0 && metScratchMiss.Value() == miss0 {
		t.Error("pool counters did not move")
	}
	if !reused {
		t.Skip("sync.Pool never returned the same scratch (drops are legal)")
	}
}

// TestVecArenaZeroesAndRecycles pins the hidden-vector arena contract:
// chunks come back zeroed (new tracks step from the zero hidden state even
// when the slab held stale values) and release reuses slabs.
func TestVecArenaZeroesAndRecycles(t *testing.T) {
	var a vecArena
	v := a.alloc(16)
	for i := range v {
		v[i] = 3.5
	}
	a.release()
	w := a.alloc(16)
	if &v[0] != &w[0] {
		t.Errorf("arena did not reuse its slab after release")
	}
	for i, x := range w {
		if x != 0 {
			t.Fatalf("arena chunk not zeroed at %d: %v", i, x)
		}
	}
	// Steady state allocates nothing.
	a.release()
	if n := testing.AllocsPerRun(50, func() {
		a.release()
		for k := 0; k < 100; k++ {
			a.alloc(16)
		}
	}); n != 0 {
		t.Errorf("arena steady state allocates %v per cycle, want 0", n)
	}
}

// TestTrackerUpdateZeroAllocSteadyState pins every tracker's association
// round: with stable tracks matched each round, an Update allocates
// nothing. The only allocation left is the occasional Dets append growth,
// which doubling capacity makes amortized-zero (two growths in 21 rounds
// average to 0). A per-tracker hook that escapes to the heap would cost an
// allocation every round and fail here. Measured on commit 9bc8d65: SORT 0,
// pair 0, recurrent 0, with and without -race.
func TestTrackerUpdateZeroAllocSteadyState(t *testing.T) {
	recurrent, _ := trainedRecurrent(t, 5)
	pair := trainedPair(t, 9)
	cases := []struct {
		name string
		new  func() Tracker
	}{
		{"sort", func() Tracker { return NewSORT() }},
		{"pair", func() Tracker { return NewPairTracker(pair, costmodel.NewAccountant()) }},
		{"recurrent", func() Tracker { return NewRecurrentTracker(recurrent, costmodel.NewAccountant()) }},
	}
	// Two objects on straight lines, shaped like syntheticClips' training
	// tracks so the learned matchers accept every continuation. The frame
	// context and detection slice are reused: through the Tracker
	// interface both would escape, and the round is what is measured.
	ctx := &FrameContext{GapFrames: 2}
	dets := make([]detect.Detection, 2)
	step := func(tr Tracker) {
		f := ctx.FrameIdx
		dets[0] = detect.Detection{FrameIdx: f, Box: geom.Rect{X: 10 + 4*float64(f), Y: 20, W: 40, H: 20}, Score: 0.9, Category: "car", AppMean: 100, AppStd: 15}
		dets[1] = detect.Detection{FrameIdx: f, Box: geom.Rect{X: 100 + 4*float64(f), Y: 170, W: 40, H: 20}, Score: 0.9, Category: "car", AppMean: 130, AppStd: 15}
		tr.Update(ctx, dets)
		ctx.FrameIdx += 2
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.new()
			for ctx.FrameIdx = 0; ctx.FrameIdx < 40; {
				step(tr)
			}
			if n := testing.AllocsPerRun(20, func() { step(tr) }); n != 0 {
				t.Errorf("Update steady state allocates %v per round, want 0", n)
			}
			if tracks := tr.Finish(); len(tracks) != 2 {
				t.Errorf("%d tracks, want 2 (every round must match both objects)", len(tracks))
			}
		})
	}
}
