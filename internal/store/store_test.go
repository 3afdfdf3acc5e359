package store

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/obs"
	"otif/internal/query"
)

// scanBoxes and indexBoxes read the two boxes-visited counters (the
// registry hands back the same handle the instrumented packages hold).
func scanBoxes() int64  { return obs.Default.Counter("query.scan_boxes").Value() }
func indexBoxes() int64 { return metIndexBoxes.Value() }

// genTracks builds a randomized clip of tracks: mixed categories, varying
// density/duration, plus degenerate cases (empty track, single detection,
// duplicate frame indices) that the index must handle exactly like the
// scan.
func genTracks(r *rand.Rand, n, frames int, ctx query.Context) []*query.Track {
	cats := []string{"car", "bus", "truck", "car", "car"}
	tracks := make([]*query.Track, 0, n)
	for i := 0; i < n; i++ {
		t := &query.Track{ID: i, Category: cats[r.Intn(len(cats))]}
		switch r.Intn(10) {
		case 0: // empty track
		case 1: // single detection
			t.Dets = []detect.Detection{randDet(r, r.Intn(frames), ctx)}
		default:
			start := r.Intn(frames)
			end := start + 1 + r.Intn(frames-start)
			step := 1 + r.Intn(8)
			for f := start; f <= end && f < frames; f += step {
				t.Dets = append(t.Dets, randDet(r, f, ctx))
				if r.Intn(20) == 0 { // duplicate frame index
					t.Dets = append(t.Dets, randDet(r, f, ctx))
				}
			}
		}
		for _, d := range t.Dets {
			t.Path = append(t.Path, d.Box.Center())
		}
		tracks = append(tracks, t)
	}
	return tracks
}

func randDet(r *rand.Rand, frame int, ctx query.Context) detect.Detection {
	w := 10 + r.Float64()*60
	h := 10 + r.Float64()*60
	return detect.Detection{
		FrameIdx: frame,
		Box: geom.Rect{
			X: r.Float64() * (float64(ctx.NomW) - w),
			Y: r.Float64() * (float64(ctx.NomH) - h),
			W: w, H: h,
		},
		Score:    r.Float64(),
		Category: "car",
	}
}

func testCtx() query.Context {
	return query.Context{FPS: 10, NomW: 640, NomH: 360, Frames: 150}
}

func randRegion(r *rand.Rand, ctx query.Context) geom.Polygon {
	x := r.Float64() * float64(ctx.NomW) * 0.8
	y := r.Float64() * float64(ctx.NomH) * 0.8
	w := 20 + r.Float64()*float64(ctx.NomW)*0.4
	h := 20 + r.Float64()*float64(ctx.NomH)*0.4
	return geom.Polygon{{X: x, Y: y}, {X: x + w, Y: y}, {X: x + w, Y: y + h}, {X: x, Y: y + h}}
}

// queryParams carries one call's parameters; each kind reads the fields it
// takes and ignores the rest.
type queryParams struct {
	cat       string
	pred      query.FramePredicate
	limit     int
	minSep    int
	catB      string
	nA, nB    int
	dist      float64 // CoOccurrences radius, PathBreakdown endpoint tolerance
	region    geom.Polygon
	movements []query.Movement
	threshold float64
	frame     int
}

// visible is VisibleBoxes' answer for one clip.
type visible struct {
	Boxes  []geom.Rect
	Owners []*query.Track
}

// queryKind is one row of the differential table: a query through the
// store's indexes and the same query as a linear scan over every clip.
type queryKind struct {
	name    string
	indexed func(s *Segment, p queryParams) any
	scan    func(perClip [][]*query.Track, ctx query.Context, p queryParams) any
}

func kind[E any](name string, indexed func(*Segment, queryParams) []E, scan func([]*query.Track, query.Context, queryParams) E) queryKind {
	return queryKind{
		name:    name,
		indexed: func(s *Segment, p queryParams) any { return indexed(s, p) },
		scan: func(perClip [][]*query.Track, ctx query.Context, p queryParams) any {
			out := make([]E, len(perClip))
			for i, tracks := range perClip {
				out[i] = scan(tracks, ctx, p)
			}
			return out
		},
	}
}

// queryKinds is every query the store answers, each beside the internal/query
// scan it must equal. The scans are the reference: TestDifferentialQueries
// compares every row on random worlds and TestGoldenQueries hashes through
// the rows, so a constant there vouches for index and scan alike.
var queryKinds = []queryKind{
	kind("count",
		func(s *Segment, p queryParams) []int { return s.CountTracks(p.cat) },
		func(tr []*query.Track, _ query.Context, p queryParams) int { return query.CountTracks(tr, p.cat) }),
	kind("breakdown",
		func(s *Segment, p queryParams) []map[string]int { return s.PathBreakdown(p.cat, p.movements, p.dist) },
		func(tr []*query.Track, _ query.Context, p queryParams) map[string]int {
			return query.PathBreakdown(tr, p.cat, p.movements, p.dist)
		}),
	kind("limit",
		func(s *Segment, p queryParams) [][]query.FrameMatch {
			return s.LimitQuery(p.cat, p.pred, p.limit, p.minSep)
		},
		func(tr []*query.Track, ctx query.Context, p queryParams) []query.FrameMatch {
			return query.LimitQuery(tr, p.cat, p.pred, ctx, p.limit, p.minSep)
		}),
	kind("avgvisible",
		func(s *Segment, p queryParams) []float64 { return s.AvgVisible(p.cat) },
		func(tr []*query.Track, ctx query.Context, p queryParams) float64 {
			return query.AvgVisible(tr, p.cat, ctx)
		}),
	kind("busy",
		func(s *Segment, p queryParams) [][]int { return s.BusyFrames(p.cat, p.nA, p.catB, p.nB) },
		func(tr []*query.Track, ctx query.Context, p queryParams) []int {
			return query.BusyFrames(tr, p.cat, p.nA, p.catB, p.nB, ctx)
		}),
	kind("cooc",
		func(s *Segment, p queryParams) []int { return s.CoOccurrences(p.cat, p.dist) },
		func(tr []*query.Track, ctx query.Context, p queryParams) int {
			return query.CoOccurrences(tr, p.cat, p.dist, ctx)
		}),
	kind("dwell",
		func(s *Segment, p queryParams) []map[int]float64 { return s.DwellTime(p.cat, p.region) },
		func(tr []*query.Track, ctx query.Context, p queryParams) map[int]float64 {
			return query.DwellTime(tr, p.cat, p.region, ctx)
		}),
	kind("braking",
		func(s *Segment, p queryParams) [][]*query.Track { return s.HardBraking(p.threshold) },
		func(tr []*query.Track, ctx query.Context, p queryParams) []*query.Track {
			return query.HardBraking(tr, ctx, p.threshold)
		}),
	kind("speeding",
		func(s *Segment, p queryParams) [][]*query.Track { return s.Speeding(p.threshold) },
		func(tr []*query.Track, ctx query.Context, p queryParams) []*query.Track {
			return query.Speeding(tr, ctx, p.threshold)
		}),
	kind("visibleboxes",
		func(s *Segment, p queryParams) []visible {
			out := make([]visible, s.Clips())
			for c := range out {
				out[c].Boxes, out[c].Owners = s.VisibleBoxes(c, p.cat, p.frame)
			}
			return out
		},
		func(tr []*query.Track, _ query.Context, p queryParams) visible {
			boxes, owners := query.VisibleBoxes(tr, p.cat, p.frame)
			return visible{boxes, owners}
		}),
}

// both answers one query through the index and through the scan, fails the
// test unless the two are deeply equal (nil-ness and order included), and
// returns the answer.
func (k queryKind) both(t *testing.T, s *Segment, perClip [][]*query.Track, p queryParams) any {
	t.Helper()
	got := k.indexed(s, p)
	if want := k.scan(perClip, s.Context(), p); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %+v diverged from the scan:\nindexed: %v\nscan:    %v", k.name, p, got, want)
	}
	return got
}

// TestDifferentialQueries asserts, across randomized track sets, that
// every row of queryKinds returns element-for-element identical results
// from the indexes and from the linear scan.
func TestDifferentialQueries(t *testing.T) {
	ctx := testCtx()
	movements := []query.Movement{
		{Name: "a", Path: geom.Path{{X: 0, Y: 0}, {X: 640, Y: 360}}},
		{Name: "b", Path: geom.Path{{X: 640, Y: 0}, {X: 0, Y: 360}}},
	}
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		perClip := [][]*query.Track{
			genTracks(r, 5+r.Intn(40), ctx.Frames, ctx),
			genTracks(r, r.Intn(10), ctx.Frames, ctx), // small clip
			nil, // empty clip
		}
		s := New(perClip, ctx)

		for _, cat := range []string{"", "car", "bus", "nosuch"} {
			for _, pred := range []query.FramePredicate{
				query.CountPredicate{N: 1 + r.Intn(4)},
				query.RegionPredicate{Region: randRegion(r, ctx), N: 1 + r.Intn(3)},
				query.HotSpotPredicate{Radius: 30 + r.Float64()*80, N: 2},
			} {
				p := queryParams{
					cat: cat, pred: pred, limit: 1 + r.Intn(5), minSep: r.Intn(20),
					catB: "bus", nA: 1 + r.Intn(3), nB: 1 + r.Intn(2),
					dist: 40 + r.Float64()*160, region: randRegion(r, ctx),
					movements: movements, threshold: r.Float64() * 3000,
					frame: r.Intn(ctx.Frames),
				}
				for _, k := range queryKinds {
					k.both(t, s, perClip, p)
				}
			}
		}
	}
}

// TestActiveMatchesBruteForce checks the sorted-endpoints stabbing against
// a brute-force interval test at every frame.
func TestActiveMatchesBruteForce(t *testing.T) {
	ctx := testCtx()
	r := rand.New(rand.NewSource(42))
	tracks := genTracks(r, 60, ctx.Frames, ctx)
	s := New([][]*query.Track{tracks}, ctx)
	ci := &s.clips[0]
	for f := -1; f <= ctx.Frames; f++ {
		got, _ := ci.active(f, nil)
		var want []int32
		for i, tr := range tracks {
			if len(tr.Dets) > 0 && tr.FirstFrame() <= f && f <= tr.LastFrame() {
				want = append(want, int32(i))
			}
		}
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("active(%d) = %v, want %v", f, got, want)
		}
	}
}

// TestConcurrentQueries runs many queries against one store from parallel
// goroutines; under -race this asserts the store is read-safe and that
// sweeps (and their reused buffers) belong to one call each.
func TestConcurrentQueries(t *testing.T) {
	ctx := testCtx()
	r := rand.New(rand.NewSource(3))
	perClip := [][]*query.Track{genTracks(r, 50, ctx.Frames, ctx), genTracks(r, 30, ctx.Frames, ctx)}
	s := New(perClip, ctx)
	region := randRegion(r, ctx)

	want := s.LimitQuery("car", query.CountPredicate{N: 2}, 5, 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := s.LimitQuery("car", query.CountPredicate{N: 2}, 5, 10)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: LimitQuery diverged across concurrent calls", g)
					return
				}
				s.DwellTime("car", region)
				s.CountTracks("bus")
				s.AvgVisible("")
				s.BusyFrames("car", 2, "bus", 1)
				s.CoOccurrences("bus", 120)
			}
		}(g)
	}
	wg.Wait()
}

// TestIndexPruning asserts the acceptance criterion: on a dense workload
// the indexed LimitQuery and DwellTime visit at least 5x fewer detection
// elements than the scans, as reported by the obs counters.
func TestIndexPruning(t *testing.T) {
	ctx := query.Context{FPS: 10, NomW: 640, NomH: 360, Frames: 600}
	r := rand.New(rand.NewSource(9))
	// Many short tracks: the scan pays O(tracks x dets) per frame, the
	// index touches only the handful visible per frame.
	var tracks []*query.Track
	for i := 0; i < 300; i++ {
		start := r.Intn(ctx.Frames - 20)
		tr := &query.Track{ID: i, Category: "car"}
		for f := start; f < start+20 && f < ctx.Frames; f += 2 {
			tr.Dets = append(tr.Dets, randDet(r, f, ctx))
		}
		tracks = append(tracks, tr)
	}
	perClip := [][]*query.Track{tracks}
	s := New(perClip, ctx)
	region := geom.Polygon{{X: 100, Y: 100}, {X: 220, Y: 100}, {X: 220, Y: 220}, {X: 100, Y: 220}}

	scan0 := scanBoxes()
	query.LimitQuery(tracks, "car", query.CountPredicate{N: 3}, ctx, 5, 10)
	query.DwellTime(tracks, "car", region, ctx)
	scanCost := scanBoxes() - scan0

	idx0 := indexBoxes()
	s.LimitQuery("car", query.CountPredicate{N: 3}, 5, 10)
	s.DwellTime("car", region)
	idxCost := indexBoxes() - idx0

	if idxCost == 0 {
		t.Fatal("indexed queries recorded no box visits; counter wiring broken")
	}
	if scanCost < 5*idxCost {
		t.Errorf("index visited %d boxes vs scan %d; want >= 5x pruning", idxCost, scanCost)
	}
	t.Logf("boxes visited: scan=%d indexed=%d (%.1fx)", scanCost, idxCost, float64(scanCost)/float64(idxCost))
}

// TestSweepCountsMatchVisibleBoxes is the count shortcut's property test:
// at every frame the sweep's count-only Advance equals the number of boxes
// the scan interpolates there, and on every frame of the run it reports,
// up to its next; and Boxes hands back exactly the scan's boxes and owners
// (nil when there are none) — on tracks with sampling gaps, empty,
// single-detection and duplicate-frame tracks, tracks that run past the
// clip, and sweeps that skip frames.
func TestSweepCountsMatchVisibleBoxes(t *testing.T) {
	ctx := testCtx()
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		perClip := [][]*query.Track{
			genTracks(r, 5+r.Intn(40), ctx.Frames+30, ctx),
			genTracks(r, r.Intn(4), ctx.Frames, ctx),
			nil,
		}
		s := New(perClip, ctx)
		sw := sweep{walks: true} // one sweep over every clip, as the query methods use it
		for _, stride := range []int{1, 1 + r.Intn(6)} {
			for _, cat := range []string{"", "car", "bus", "nosuch"} {
				for c, tracks := range perClip {
					sw.reset(&s.clips[c], cat, nil)
					for end, f := ctx.Frames+40, 0; f < end; f += stride {
						wantB, wantO := query.VisibleBoxes(tracks, cat, f)
						n, next := sw.Advance(f)
						if n != len(wantB) {
							t.Fatalf("seed %d clip %d cat %q frame %d stride %d: Advance = %d, scan sees %d boxes", seed, c, cat, f, stride, n, len(wantB))
						}
						if next <= f {
							t.Fatalf("seed %d clip %d cat %q frame %d: Advance reports next %d", seed, c, cat, f, next)
						}
						for g := f + 1; g < min(next, end); g++ {
							if vis, _ := query.VisibleBoxes(tracks, cat, g); len(vis) != n {
								t.Fatalf("seed %d clip %d cat %q: Advance(%d) = %d until %d, scan sees %d boxes at %d", seed, c, cat, f, n, next, len(vis), g)
							}
						}
						gotB, gotO := sw.Boxes()
						if !reflect.DeepEqual(gotB, wantB) || !reflect.DeepEqual(gotO, wantO) {
							t.Fatalf("seed %d clip %d cat %q frame %d stride %d: Boxes diverged from the scan", seed, c, cat, f, stride)
						}
					}
				}
			}
		}
	}
}

// TestLimitResultsOwnTheirBoxes guards the buffer-lifetime contract: a
// sweep reuses its box buffer for every frame and clip, so a result that
// kept a view into it would change under the next frame. Results must
// equal the scan's (which allocates per frame) and must not move when
// another query runs on the same store; a match on an empty frame keeps
// Boxes nil, not empty.
func TestLimitResultsOwnTheirBoxes(t *testing.T) {
	ctx := testCtx()
	r := rand.New(rand.NewSource(5))
	perClip := [][]*query.Track{genTracks(r, 40, ctx.Frames, ctx), genTracks(r, 25, ctx.Frames, ctx), genTracks(r, 2, ctx.Frames, ctx)}
	s := New(perClip, ctx)

	first := s.LimitQuery("car", query.CountPredicate{N: 2}, 5, 10)
	want := make([][]query.FrameMatch, len(perClip))
	for c, tracks := range perClip {
		want[c] = query.LimitQuery(tracks, "car", query.CountPredicate{N: 2}, ctx, 5, 10)
	}
	if len(first[0]) == 0 || len(first[0][0].Boxes) < 2 {
		t.Fatal("fixture should match 2-car frames in clip 0")
	}
	s.LimitQuery("", query.CountPredicate{N: 1}, 8, 3)
	s.CoOccurrences("car", 100)
	if !reflect.DeepEqual(first, want) {
		t.Errorf("limit result changed after later queries on the same store:\n got: %v\nwant: %v", first, want)
	}

	// No bus track covers every frame of the sparse clip, so N: 0 matches
	// empty frames there, with nil Boxes and the untouched MaxInt32 rank.
	empty := s.LimitQuery("bus", query.CountPredicate{N: 0}, ctx.Frames, 0)[2]
	sawEmpty := false
	for _, m := range empty {
		if vis, _ := query.VisibleBoxes(perClip[2], "bus", m.FrameIdx); len(vis) == 0 {
			sawEmpty = true
			if m.Boxes != nil {
				t.Fatalf("frame %d has no bus: Boxes = %#v, want nil", m.FrameIdx, m.Boxes)
			}
		}
	}
	if !sawEmpty {
		t.Fatal("fixture should have a frame without a bus in clip 2")
	}
}

// TestSweepTelemetry pins what the pruning counters mean under the sweep
// line: candidates_examined counts tracks reaching their first frame,
// candidates_kept those that also pass the category and region filters,
// and index_boxes the detections interpolators walked — which is none for
// the kinds that only count, a limit query's ranking included. Point
// lookups count their candidates in counters of their own.
func TestSweepTelemetry(t *testing.T) {
	ctx := testCtx()
	tracks := genTracks(rand.New(rand.NewSource(11)), 50, ctx.Frames, ctx)
	s := New([][]*query.Track{tracks}, ctx)
	var cars int64 // every non-empty track starts inside the clip
	for _, tr := range tracks {
		if len(tr.Dets) > 0 && tr.Category == "car" {
			cars++
		}
	}
	delta := func(run func()) (examined, kept, boxes int64) {
		e0, k0, b0 := metCandExamined.Value(), metCandKept.Value(), metIndexBoxes.Value()
		run()
		return metCandExamined.Value() - e0, metCandKept.Value() - k0, metIndexBoxes.Value() - b0
	}

	examined, kept, boxes := delta(func() { s.AvgVisible("car") })
	// Empty tracks sort first (start 0): examined, but never entered.
	if want := int64(len(tracks)); examined != want || kept != cars || boxes != 0 {
		t.Errorf("AvgVisible: examined %d kept %d boxes %d, want %d %d 0", examined, kept, boxes, want, cars)
	}
	if _, _, boxes := delta(func() { s.BusyFrames("car", 1, "bus", 1) }); boxes != 0 {
		t.Errorf("BusyFrames interpolated %d detections, want 0", boxes)
	}
	if _, _, boxes := delta(func() { s.LimitQuery("car", query.CountPredicate{N: len(tracks) + 1}, 5, 0) }); boxes != 0 {
		t.Errorf("LimitQuery interpolated %d detections on frames its count rejects, want 0", boxes)
	}
	// A count-accepted limit query ranks its frames from the interval index
	// and interpolates only what the point lookup fetches for its survivors.
	var matches []query.FrameMatch
	_, kept, boxes = delta(func() { matches = s.LimitQuery("car", query.CountPredicate{N: 1}, 5, 0)[0] })
	l0 := metLookupExamined.Value()
	lookupEx, lookupKept, lookups := delta(func() {
		for _, m := range matches {
			s.VisibleBoxes(0, "car", m.FrameIdx)
		}
	})
	if len(matches) != 5 || kept < cars || boxes == 0 || boxes != lookups {
		t.Errorf("LimitQuery: %d matches, kept %d, interpolated %d detections; want 5, at least %d, and the %d its five point lookups cost", len(matches), kept, boxes, cars, lookups)
	}
	// Point lookups count their candidates apart from the sweeps'.
	if lookupEx != 0 || lookupKept != 0 || metLookupExamined.Value() == l0 {
		t.Errorf("five point lookups added %d examined and %d kept to the sweep counters and %d to their own; want 0, 0 and more than 0",
			lookupEx, lookupKept, metLookupExamined.Value()-l0)
	}
	// Every snapshot carries kept / examined as a gauge.
	want := float64(metCandKept.Value()) / float64(metCandExamined.Value())
	if got, ok := obs.Default.Snapshot().Gauges["store.index_hit_ratio"]; !ok || got != want {
		t.Errorf("store.index_hit_ratio = %v (present %v), want kept/examined = %v", got, ok, want)
	}
}
