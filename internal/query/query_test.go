package query

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"otif/internal/detect"
	"otif/internal/geom"
)

func mkTrack(id int, cat string, startFrame, n, step int, x0, y0, vx, vy float64) *Track {
	t := &Track{ID: id, Category: cat}
	for i := 0; i < n; i++ {
		f := startFrame + i*step
		t.Dets = append(t.Dets, detect.Detection{
			FrameIdx: f,
			Box:      geom.Rect{X: x0 + vx*float64(i*step), Y: y0 + vy*float64(i*step), W: 40, H: 20},
			Category: cat,
		})
	}
	t.Path = make(geom.Path, len(t.Dets))
	for i, d := range t.Dets {
		t.Path[i] = d.Box.Center()
	}
	return t
}

func TestCountTracks(t *testing.T) {
	tracks := []*Track{
		mkTrack(0, "car", 0, 5, 1, 0, 0, 10, 0),
		mkTrack(1, "bus", 0, 5, 1, 0, 100, 10, 0),
		mkTrack(2, "car", 0, 5, 1, 0, 200, 10, 0),
	}
	if got := CountTracks(tracks, "car"); got != 2 {
		t.Errorf("CountTracks(car) = %d", got)
	}
	if got := CountTracks(tracks, ""); got != 3 {
		t.Errorf("CountTracks(all) = %d", got)
	}
	if got := CountTracks(tracks, "pedestrian"); got != 0 {
		t.Errorf("CountTracks(ped) = %d", got)
	}
}

func TestClassifyPath(t *testing.T) {
	movements := []Movement{
		{Name: "W->E", Path: geom.Path{{X: 0, Y: 100}, {X: 600, Y: 100}}},
		{Name: "E->W", Path: geom.Path{{X: 600, Y: 100}, {X: 0, Y: 100}}},
	}
	east := geom.Path{{X: 10, Y: 105}, {X: 300, Y: 100}, {X: 590, Y: 95}}
	if got := ClassifyPath(east, movements, 100); got != "W->E" {
		t.Errorf("ClassifyPath = %q", got)
	}
	west := geom.Path{{X: 590, Y: 100}, {X: 10, Y: 100}}
	if got := ClassifyPath(west, movements, 100); got != "E->W" {
		t.Errorf("ClassifyPath = %q", got)
	}
	// Track stopping mid-frame matches nothing.
	partial := geom.Path{{X: 10, Y: 100}, {X: 250, Y: 100}}
	if got := ClassifyPath(partial, movements, 100); got != "" {
		t.Errorf("partial path classified as %q", got)
	}
	if got := ClassifyPath(nil, movements, 100); got != "" {
		t.Error("empty path should classify as nothing")
	}
}

func TestPathBreakdown(t *testing.T) {
	movements := []Movement{
		{Name: "W->E", Path: geom.Path{{X: 0, Y: 100}, {X: 600, Y: 100}}},
		{Name: "E->W", Path: geom.Path{{X: 600, Y: 200}, {X: 0, Y: 200}}},
	}
	tracks := []*Track{
		mkTrack(0, "car", 0, 31, 1, -20, 90, 20, 0),   // W->E
		mkTrack(1, "car", 0, 31, 1, 580, 190, -20, 0), // E->W
		mkTrack(2, "bus", 0, 31, 1, -20, 90, 20, 0),   // W->E but a bus
	}
	got := PathBreakdown(tracks, "car", movements, 100)
	if got["W->E"] != 1 || got["E->W"] != 1 {
		t.Errorf("PathBreakdown = %v", got)
	}
	all := PathBreakdown(tracks, "", movements, 100)
	if all["W->E"] != 2 {
		t.Errorf("PathBreakdown all = %v", all)
	}
}

func TestBoxAtAndVisibleBoxes(t *testing.T) {
	tracks := []*Track{
		mkTrack(0, "car", 0, 11, 1, 0, 0, 10, 0),
		mkTrack(1, "car", 20, 5, 1, 0, 100, 10, 0),
	}
	boxes, owners := VisibleBoxes(tracks, "car", 5)
	if len(boxes) != 1 || owners[0].ID != 0 {
		t.Errorf("VisibleBoxes(5) = %v", boxes)
	}
	boxes, _ = VisibleBoxes(tracks, "car", 22)
	if len(boxes) != 1 {
		t.Errorf("VisibleBoxes(22) = %v", boxes)
	}
	boxes, _ = VisibleBoxes(tracks, "car", 15)
	if len(boxes) != 0 {
		t.Errorf("VisibleBoxes(15) = %v", boxes)
	}
}

func TestPredicates(t *testing.T) {
	boxes := []geom.Rect{
		{X: 0, Y: 0, W: 10, H: 10},
		{X: 5, Y: 5, W: 10, H: 10},
		{X: 300, Y: 300, W: 10, H: 10},
	}
	if _, ok := (CountPredicate{N: 3}).Eval(boxes); !ok {
		t.Error("count >= 3 should match")
	}
	if _, ok := (CountPredicate{N: 4}).Eval(boxes); ok {
		t.Error("count >= 4 should not match")
	}

	region := geom.Polygon{{X: -1, Y: -1}, {X: 50, Y: -1}, {X: 50, Y: 50}, {X: -1, Y: 50}}
	in, ok := (RegionPredicate{Region: region, N: 2}).Eval(boxes)
	if !ok || len(in) != 2 {
		t.Errorf("region predicate = %v, %v", in, ok)
	}
	if _, ok := (RegionPredicate{Region: region, N: 3}).Eval(boxes); ok {
		t.Error("region should contain only 2")
	}

	in, ok = (HotSpotPredicate{Radius: 20, N: 2}).Eval(boxes)
	if !ok || len(in) != 2 {
		t.Errorf("hotspot = %v, %v", in, ok)
	}
	if _, ok := (HotSpotPredicate{Radius: 20, N: 3}).Eval(boxes); ok {
		t.Error("no 3-cluster within radius 20")
	}
}

func TestLimitQuery(t *testing.T) {
	// One long track visible frames 0-100, one short visible 50-54.
	tracks := []*Track{
		mkTrack(0, "car", 0, 101, 1, 0, 0, 1, 0),
		mkTrack(1, "car", 50, 5, 1, 0, 100, 1, 0),
	}
	ctx := Context{FPS: 10, NomW: 640, NomH: 480, Frames: 101}
	// Frames with >= 2 cars are 50..54.
	out := LimitQuery(tracks, "car", CountPredicate{N: 2}, ctx, 10, 10)
	if len(out) != 1 {
		t.Fatalf("limit query returned %d frames, want 1 (5 matches within min separation)", len(out))
	}
	if out[0].FrameIdx < 50 || out[0].FrameIdx > 54 {
		t.Errorf("returned frame %d outside matching range", out[0].FrameIdx)
	}
	// Limit respected with smaller separation.
	out = LimitQuery(tracks, "car", CountPredicate{N: 2}, ctx, 2, 2)
	if len(out) != 2 {
		t.Errorf("limit 2 returned %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].FrameIdx-out[i-1].FrameIdx < 2 {
			t.Error("separation violated")
		}
	}
}

func TestHardBraking(t *testing.T) {
	ctx := Context{FPS: 10, Frames: 100}
	steady := mkTrack(0, "car", 0, 50, 1, 0, 0, 10, 0)
	// Braking: speed 20 px/frame then 2 px/frame.
	braking := &Track{ID: 1, Category: "car"}
	x := 0.0
	for f := 0; f < 50; f++ {
		v := 20.0
		if f >= 25 {
			v = 2
		}
		x += v
		braking.Dets = append(braking.Dets, detect.Detection{
			FrameIdx: f, Box: geom.Rect{X: x, Y: 0, W: 40, H: 20}, Category: "car",
		})
	}
	out := HardBraking([]*Track{steady, braking}, ctx, 100)
	if len(out) != 1 || out[0].ID != 1 {
		t.Errorf("HardBraking = %v", ids(out))
	}
	// A huge threshold matches nothing.
	if got := HardBraking([]*Track{steady, braking}, ctx, 1e9); len(got) != 0 {
		t.Error("impossible threshold matched tracks")
	}
}

func ids(ts []*Track) []int {
	var out []int
	for _, t := range ts {
		out = append(out, t.ID)
	}
	return out
}

func TestAvgVisible(t *testing.T) {
	ctx := Context{FPS: 10, Frames: 10}
	tracks := []*Track{mkTrack(0, "car", 0, 10, 1, 0, 0, 1, 0)} // visible frames 0..9
	got := AvgVisible(tracks, "car", ctx)
	if got != 1 {
		t.Errorf("AvgVisible = %v, want 1", got)
	}
	if AvgVisible(nil, "car", Context{}) != 0 {
		t.Error("zero frames should yield 0")
	}
}

func TestBusyFrames(t *testing.T) {
	ctx := Context{FPS: 10, Frames: 20}
	tracks := []*Track{
		mkTrack(0, "car", 0, 20, 1, 0, 0, 1, 0),
		mkTrack(1, "car", 5, 10, 1, 0, 50, 1, 0),
		mkTrack(2, "bus", 8, 4, 1, 0, 100, 1, 0),
	}
	out := BusyFrames(tracks, "car", 2, "bus", 1, ctx)
	// Frames with 2 cars (5..14) AND 1 bus (8..11): 8..11.
	if len(out) != 4 || out[0] != 8 || out[3] != 11 {
		t.Errorf("BusyFrames = %v", out)
	}
}

// runSource is a FrameSource whose visible count is a step function of the
// frame: counts[i] holds from changes[i-1] (or frame 0) up to changes[i].
// It counts its Advance calls, and can report runs of one frame, as the
// scan does, to give the per-frame answer for comparison.
type runSource struct {
	changes  []int // ascending
	counts   []int // len(changes)+1
	perFrame bool
	calls    int
	run      int // the run of the frame last advanced to
}

func (s *runSource) runOf(f int) int { return sort.SearchInts(s.changes, f+1) }

func (s *runSource) Advance(f int) (int, int) {
	s.calls++
	s.run = s.runOf(f)
	next := math.MaxInt
	if s.run < len(s.changes) {
		next = s.changes[s.run]
	}
	if s.perFrame {
		next = f + 1
	}
	return s.counts[s.run], next
}

func (s *runSource) Boxes() ([]geom.Rect, []*Track) { panic("a count-only core asked for boxes") }

// MinLastFrame is some frame past the run's end, fixed per run.
func (s *runSource) MinLastFrame() int { return 1000 + 37*s.run }

func (s *runSource) At(f int) ([]geom.Rect, []*Track) {
	return make([]geom.Rect, s.counts[s.runOf(f)]), nil
}

// newRunSources returns a source whose count changes at the given frames,
// or at k random frames of [1, frames) when changes is nil, and the same
// source reporting one frame at a time.
func newRunSources(r *rand.Rand, changes []int, k, frames int) (runs, perFrame *runSource) {
	if changes == nil {
		at := map[int]bool{}
		for len(at) < k {
			at[1+r.Intn(frames-1)] = true
		}
		for f := range at {
			changes = append(changes, f)
		}
		sort.Ints(changes)
	}
	runs = &runSource{changes: changes, counts: make([]int, len(changes)+1)}
	for i := range runs.counts {
		runs.counts[i] = r.Intn(5)
	}
	return runs, &runSource{changes: changes, counts: runs.counts, perFrame: true}
}

// TestCountCoresAdvancePerRun pins that the count-only cores do their work
// once per run of frames with one visible set, not once per frame: over a
// source whose count changes at k frames, AvgVisibleFrom, BusyFramesFrom
// (on each of two sources that change at the same k frames) and a
// CountPredicate LimitQueryFrom call Advance
// at most k + 1 times, and answer what they answer one frame at a time.
func TestCountCoresAdvancePerRun(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ctx := Context{FPS: 10, Frames: 1500}
	for trial := 0; trial < 50; trial++ {
		k := 1 + r.Intn(40)
		runs, perFrame := newRunSources(r, nil, k, ctx.Frames)
		bRuns, bPerFrame := newRunSources(r, runs.changes, k, ctx.Frames)
		check := func(kind string, got, want any, srcs ...*runSource) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s per run = %v, per frame = %v", trial, kind, got, want)
			}
			for _, s := range srcs {
				if s.calls > k+1 {
					t.Fatalf("trial %d: %s called Advance %d times on a source with %d changes", trial, kind, s.calls, k)
				}
				s.calls = 0
			}
		}
		check("AvgVisibleFrom", AvgVisibleFrom(runs, ctx), AvgVisibleFrom(perFrame, ctx), runs)
		nA, nB := r.Intn(4), r.Intn(4)
		check("BusyFramesFrom", BusyFramesFrom(runs, nA, bRuns, nB, ctx), BusyFramesFrom(perFrame, nA, bPerFrame, nB, ctx), runs, bRuns)
		pred, limit, minSep := CountPredicate{N: r.Intn(5) - 1}, 1+r.Intn(6), r.Intn(30)
		got := LimitQueryFrom(runs, pred, ctx, limit, minSep)
		check("LimitQueryFrom", got, LimitQueryFrom(perFrame, pred, ctx, limit, minSep), runs)
	}
}

// TestRankByDurationMatchesSortSlice holds the limit ranking's sort to the
// sort.Slice call it replaced: both are Go's pdqsort, and the order they
// leave equal durations in is part of every limit answer. Over 20,000
// inputs of up to 3,000 candidates, tie-heavy ones (durations from a few
// values) and ones shaped like a count-only ranking (runs of frames whose
// durations fall by one a frame, some runs at the untouched MaxInt32),
// the two must produce the same permutation.
func TestRankByDurationMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var got, want []LimitCand
	for trial := 0; trial < 20000; trial++ {
		n := r.Intn(1 + r.Intn(3001)) // mostly short, some up to 3,000
		got = got[:0]
		switch trial % 3 {
		case 0: // ties: a handful of distinct durations
			k := 1 + r.Intn(8)
			for f := 0; f < n; f++ {
				got = append(got, LimitCand{Frame: int32(f), MinDur: int32(r.Intn(k))})
			}
		case 1: // a count-only ranking's runs
			for f := 0; len(got) < n; {
				run, last := 1+r.Intn(12), f+r.Intn(120)
				for ; run > 0 && len(got) < n; run, f = run-1, f+1 {
					d := int32(last - f)
					if last < 0 || r.Intn(20) == 0 {
						d = math.MaxInt32
					}
					got = append(got, LimitCand{Frame: int32(f), MinDur: d})
				}
				f += r.Intn(30) // a skipped stretch
			}
		default: // anything
			for f := 0; f < n; f++ {
				got = append(got, LimitCand{Frame: int32(f), MinDur: int32(r.Intn(2*n + 1))})
			}
		}
		want = append(want[:0], got...)
		sort.Slice(want, func(i, j int) bool { return want[i].MinDur > want[j].MinDur })
		rankByDuration(got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d candidates): rankByDuration and sort.Slice permute differently", trial, n)
		}
	}
}

// pickQuadratic is PickLimit's separation loop as it was first written,
// each candidate checked against every frame already taken, then sorted by
// frame: the reference TestPickLimitMatchesQuadratic holds the binary
// search to.
func pickQuadratic(ranked []LimitCand, limit, minSepFrames int) []FrameMatch {
	var out []FrameMatch
	for _, c := range ranked {
		if len(out) >= limit {
			break
		}
		ok := true
		for _, o := range out {
			if f := int(c.Frame); max(o.FrameIdx-f, f-o.FrameIdx) < minSepFrames {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, FrameMatch{FrameIdx: int(c.Frame), MinDuration: int(c.MinDur)})
		}
	}
	slices.SortFunc(out, func(a, b FrameMatch) int { return a.FrameIdx - b.FrameIdx })
	return out
}

// TestPickLimitMatchesQuadratic: over 5,000 ranked lists of distinct
// frames (a clip yields one candidate a frame), ranked by duration as
// RankLimit leaves them or in random order, PickLimit takes the frames the
// quadratic loop takes, at limits from 0 to past the candidate count and
// separations of -3, 0, 1, a random one and more than the clip is long.
func TestPickLimitMatchesQuadratic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	src, _ := newRunSources(r, nil, 8, 2000)
	pred := CountPredicate{N: 0}
	for trial := 0; trial < 5000; trial++ {
		frames := 1 + r.Intn(2000)
		ranked := make([]LimitCand, 0, frames)
		for _, f := range r.Perm(frames)[:r.Intn(frames+1)] {
			ranked = append(ranked, LimitCand{Frame: int32(f), MinDur: int32(r.Intn(200))})
		}
		if trial%2 == 0 {
			rankByDuration(ranked)
		}
		limit := []int{0, 1, 1 + r.Intn(20), len(ranked), len(ranked) + 1 + r.Intn(5)}[trial%5]
		minSep := []int{-3, 0, 1, r.Intn(100), 3 * frames}[(trial/5)%5]
		got := PickLimit(src, pred, ranked, limit, minSep)
		want := pickQuadratic(ranked, limit, minSep)
		if len(got) != len(want) {
			t.Fatalf("trial %d (limit %d, separation %d): %d frames taken, want %d", trial, limit, minSep, len(got), len(want))
		}
		for i := range got {
			if got[i].FrameIdx != want[i].FrameIdx || got[i].MinDuration != want[i].MinDuration {
				t.Fatalf("trial %d (limit %d, separation %d): match %d is %+v, want %+v", trial, limit, minSep, i, got[i], want[i])
			}
		}
	}
}
