package store

import (
	"math/rand"
	"testing"

	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/query"
)

// benchWorkload is a paper-scale clip: many short tracks spread over a
// long clip, where interval pruning pays off most.
func benchWorkload() ([][]*query.Track, query.Context) {
	ctx := query.Context{FPS: 10, NomW: 1280, NomH: 720, Frames: 1800}
	r := rand.New(rand.NewSource(42))
	perClip := make([][]*query.Track, 4)
	for c := range perClip {
		perClip[c] = genTracks(r, 500, ctx.Frames, ctx)
	}
	return perClip, ctx
}

// BenchmarkLimitQueryScan is BenchmarkLimitQueryIndexed/random as the
// linear scan over every track at every frame (the pre-index
// implementation).
func BenchmarkLimitQueryScan(b *testing.B) {
	perClip, ctx := benchWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tracks := range perClip {
			query.LimitQuery(tracks, "car", query.CountPredicate{N: 3}, ctx, 5, ctx.FPS)
		}
	}
}

// BenchmarkDwellScan is BenchmarkDwellIndexed/random's first region as
// the frame-by-frame BoxAt scan.
func BenchmarkDwellScan(b *testing.B) {
	perClip, ctx := benchWorkload()
	region := randRegion(rand.New(rand.NewSource(1)), ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tracks := range perClip {
			query.DwellTime(tracks, "car", region, ctx)
		}
	}
}

// The track-level kinds: one comparison per track over a column of the
// index, against the scan that derives the number from every detection.

func BenchmarkSpeedingIndexed(b *testing.B) {
	benchIndexed(b, func(s *Segment) { s.Speeding(800) })
}

func BenchmarkSpeedingScan(b *testing.B) {
	benchScan(b, func(tracks []*query.Track, ctx query.Context) { query.Speeding(tracks, ctx, 800) })
}

func BenchmarkHardBrakingIndexed(b *testing.B) {
	benchIndexed(b, func(s *Segment) { s.HardBraking(250) })
}

func BenchmarkHardBrakingScan(b *testing.B) {
	benchScan(b, func(tracks []*query.Track, ctx query.Context) { query.HardBraking(tracks, ctx, 250) })
}

// BenchmarkIndexBuild measures the one-time cost the index amortizes.
func BenchmarkIndexBuild(b *testing.B) {
	perClip, ctx := benchWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(perClip, ctx)
	}
}

// benchIndexed times one query over the benchWorkload store.
func benchIndexed(b *testing.B, run func(s *Segment)) {
	perClip, ctx := benchWorkload()
	s := New(perClip, ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(s)
	}
}

// benchScan times one linear scan over every clip of the benchWorkload.
func benchScan(b *testing.B, run func(tracks []*query.Track, ctx query.Context)) {
	perClip, ctx := benchWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tracks := range perClip {
			run(tracks, ctx)
		}
	}
}

// The frame-level kinds through the sweep line, and the track-level kinds
// that read the geometry column, each on two workloads: "random" is
// benchWorkload; "querymix" is queryMixWorkload, the shape of the
// benchmark's query-mix archive, where a run of frames with one visible
// set lasts about four frames and interpolation dominates.

func BenchmarkLimitQueryIndexed(b *testing.B) {
	benchKind(b, func(s *Segment, _ geom.Polygon) { s.LimitQuery("car", query.CountPredicate{N: 3}, 5, s.Context().FPS) })
}

func BenchmarkAvgVisibleIndexed(b *testing.B) {
	benchKind(b, func(s *Segment, _ geom.Polygon) { s.AvgVisible("car") })
}

func BenchmarkBusyFramesIndexed(b *testing.B) {
	benchKind(b, func(s *Segment, _ geom.Polygon) { s.BusyFrames("car", 3, "bus", 1) })
}

func BenchmarkCoOccurrencesIndexed(b *testing.B) {
	benchKind(b, func(s *Segment, _ geom.Polygon) { s.CoOccurrences("car", 80) })
}

// BenchmarkCoOccurrencesSharded is a frame pass's CoOccurrences on the
// query-mix shape through a Sharded of two segments, each call at a
// distance not asked before: "walk" has no result cache and walks the
// sweep, "column" counts from the cached pair-distance columns that its
// first call leaves behind.
func BenchmarkCoOccurrencesSharded(b *testing.B) {
	perClip, ctx := queryMixWorkload()
	for _, w := range []struct {
		name   string
		cached bool
	}{{"walk", false}, {"column", true}} {
		b.Run(w.name, func(b *testing.B) {
			var cache *Cache // a fresh one each run, so no run hits another's answers
			if w.cached {
				cache = NewCache()
			}
			sh, err := NewSharded("bench", ctx, SplitSegments(perClip, ctx, 2), cache)
			if err != nil {
				b.Fatal(err)
			}
			dist := 60.0
			sh.CoOccurrences("car", dist)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dist++
				sh.CoOccurrences("car", dist)
			}
		})
	}
}

// BenchmarkLimitQuerySharded is a frame pass's LimitQuery on the query-mix
// shape through a Sharded of two segments, each call at a separation not
// asked before: "walk" has no result cache and ranks every clip, "column"
// picks from the cached ranked-candidate columns that its first call
// leaves behind.
func BenchmarkLimitQuerySharded(b *testing.B) {
	perClip, ctx := queryMixWorkload()
	for _, w := range []struct {
		name   string
		cached bool
	}{{"walk", false}, {"column", true}} {
		b.Run(w.name, func(b *testing.B) {
			var cache *Cache // a fresh one each run, so no run hits another's answers
			if w.cached {
				cache = NewCache()
			}
			sh, err := NewSharded("bench", ctx, SplitSegments(perClip, ctx, 2), cache)
			if err != nil {
				b.Fatal(err)
			}
			pred, minSep := query.CountPredicate{N: 3}, ctx.FPS
			sh.LimitQuery("car", pred, 5, minSep)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				minSep++
				sh.LimitQuery("car", pred, 5, minSep)
			}
		})
	}
}

// BenchmarkBusyFramesSharded is a frame pass's BusyFrames on the query-mix
// shape through a Sharded of two segments, each call at an (nA, nB) not
// asked before: nA cycles through 2, 3 and 4 and nB counts down from 1, so
// from the fourth call on every frame has enough buses and the answer is
// every frame with nA cars. "walk" has no result cache and sweeps both
// categories, "column" replays the cached count-run columns that its first
// call leaves behind.
func BenchmarkBusyFramesSharded(b *testing.B) {
	perClip, ctx := queryMixWorkload()
	for _, w := range []struct {
		name   string
		cached bool
	}{{"walk", false}, {"column", true}} {
		b.Run(w.name, func(b *testing.B) {
			var cache *Cache // a fresh one each run, so no run hits another's answers
			if w.cached {
				cache = NewCache()
			}
			sh, err := NewSharded("bench", ctx, SplitSegments(perClip, ctx, 2), cache)
			if err != nil {
				b.Fatal(err)
			}
			sh.BusyFrames("car", 3, "bus", 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.BusyFrames("car", 2+i%3, "bus", 1-i)
			}
		})
	}
}

// BenchmarkDwellIndexed measures region dwell through the centre-extent
// mask and the block walk, a different region each call.
func BenchmarkDwellIndexed(b *testing.B) {
	benchKind(b, func(s *Segment, region geom.Polygon) { s.DwellTime("car", region) })
}

// BenchmarkPathBreakdownIndexed classifies every car's path endpoints
// against benchMovements.
func BenchmarkPathBreakdownIndexed(b *testing.B) {
	benchKind(b, func(s *Segment, _ geom.Polygon) {
		ctx := s.Context()
		s.PathBreakdown("car", benchMovements(ctx), 0.22*float64(ctx.NomW))
	})
}

// benchKind times one query on each workload as a sub-benchmark. Each
// workload draws 16 regions its own way, and call i is handed region
// i mod 16: randRegion's anywhere in the frame for random, and the
// benchmark's query-mix draw for querymix (queryMixRegion).
func benchKind(b *testing.B, run func(s *Segment, region geom.Polygon)) {
	for _, w := range []struct {
		name   string
		load   func() ([][]*query.Track, query.Context)
		region func(*rand.Rand, query.Context) geom.Polygon
	}{{"random", benchWorkload, randRegion}, {"querymix", queryMixWorkload, queryMixRegion}} {
		b.Run(w.name, func(b *testing.B) {
			s := New(w.load())
			r := rand.New(rand.NewSource(1))
			regions := make([]geom.Polygon, 16)
			for i := range regions {
				regions[i] = w.region(r, s.Context())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(s, regions[i%len(regions)])
			}
		})
	}
}

// queryMixRegion draws a dwell region as the benchmark's query-mix does: a
// rectangle with its corner in the frame's top-left quarter and sides 20 to
// 50 % of the frame's.
func queryMixRegion(r *rand.Rand, ctx query.Context) geom.Polygon {
	w, h := float64(ctx.NomW), float64(ctx.NomH)
	x, y := r.Float64()*w*0.5, r.Float64()*h*0.5
	rw, rh := w*(0.2+0.3*r.Float64()), h*(0.2+0.3*r.Float64())
	return geom.Polygon{{X: x, Y: y}, {X: x + rw, Y: y}, {X: x + rw, Y: y + rh}, {X: x, Y: y + rh}}
}

// benchMovements are four straight movements across the frame, two each
// way along two lanes, for the path breakdown benchmark and alloc gate.
func benchMovements(ctx query.Context) []query.Movement {
	w, h := float64(ctx.NomW), float64(ctx.NomH)
	west, east := geom.Point{X: 0, Y: h / 3}, geom.Point{X: w, Y: h / 3}
	north, south := geom.Point{X: w / 2, Y: 0}, geom.Point{X: w / 2, Y: h}
	return []query.Movement{
		{Name: "W->E", Path: geom.Path{west, east}},
		{Name: "E->W", Path: geom.Path{east, west}},
		{Name: "N->S", Path: geom.Path{north, south}},
		{Name: "S->N", Path: geom.Path{south, north}},
	}
}

// queryMixWorkload is four clips of the query-mix archive's shape: 1500
// frames, about 190 straight-line tracks a clip with a detection every 4
// frames, 8 visible per frame on average, one in ten a bus.
func queryMixWorkload() ([][]*query.Track, query.Context) {
	ctx := query.Context{FPS: 25, NomW: 1280, NomH: 720, Frames: 1500}
	r := rand.New(rand.NewSource(7))
	perClip := make([][]*query.Track, 4)
	for c := range perClip {
		for id := 0; id < 190; id++ {
			t := &query.Track{ID: id, Category: "car"}
			if r.Intn(10) == 0 {
				t.Category = "bus"
			}
			length := 4 * (8 + r.Intn(16)) // 32..124 frames, 63 on average
			start := 4 * r.Intn((ctx.Frames-length)/4)
			x, y := r.Float64()*float64(ctx.NomW), r.Float64()*float64(ctx.NomH)
			vx, vy := r.Float64()*8-4, r.Float64()*4-2
			for f := start; f <= start+length; f += 4 {
				dt := float64(f - start)
				box := geom.Rect{X: x + vx*dt, Y: y + vy*dt, W: 60, H: 40}
				t.Dets = append(t.Dets, detect.Detection{FrameIdx: f, Box: box, Score: 1, Category: t.Category})
				t.Path = append(t.Path, box.Center())
			}
			perClip[c] = append(perClip[c], t)
		}
	}
	return perClip, ctx
}

// warmPass returns a pass of the eight cached kinds over sh, the same
// parameters every time, as the benchmark's query-mix warm passes ask
// them (CountTracks is not cached).
func warmPass(sh *Sharded) func() {
	ctx := sh.Context()
	region := queryMixRegion(rand.New(rand.NewSource(1)), ctx)
	movements := benchMovements(ctx)
	return func() {
		sh.PathBreakdown("car", movements, 0.22*float64(ctx.NomW))
		sh.DwellTime("car", region)
		sh.HardBraking(250)
		sh.Speeding(800)
		sh.LimitQuery("car", query.CountPredicate{N: 3}, 5, ctx.FPS)
		sh.AvgVisible("car")
		sh.BusyFrames("car", 3, "bus", 1)
		sh.CoOccurrences("car", 70)
	}
}

// BenchmarkWarmPassSharded is warmPass on the query-mix shape through a
// Sharded of four one-clip segments, every answer from the result cache:
// what a repeated call costs beyond its work.
func BenchmarkWarmPassSharded(b *testing.B) {
	perClip, ctx := queryMixWorkload()
	sh, err := NewSharded("bench", ctx, SplitSegments(perClip, ctx, 1), NewCache())
	if err != nil {
		b.Fatal(err)
	}
	pass := warmPass(sh)
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// TestFrameQueryAllocGate keeps the frame-level kinds off the allocator:
// a sweep owns its buffers, so what a call allocates depends on how many
// clips it answers for and on what it returns, not on how many frames it
// sweeps; an answer from a derived column, not on how long the column is;
// a warm call, answered from the result cache, not on how many segments
// answer it. The workload is 4 clips of 1800 frames; the parent of the
// sweep line allocated several times per frame and clip (about 30k a
// call).
func TestFrameQueryAllocGate(t *testing.T) {
	perClip, ctx := benchWorkload()
	s := New(perClip, ctx)
	perClipBudget := func(n int) float64 { return float64(n * len(perClip)) }
	// CoOccurrences answered from pair-distance columns, on the query-mix
	// shape (benchWorkload's columns are past the size limit) at one clip a
	// segment: the first call builds the columns, and every call after it
	// asks a distance not asked before, so the answer is counted, not hit.
	mixClips, mixCtx := queryMixWorkload()
	cached, err := NewSharded("test", mixCtx, SplitSegments(mixClips, mixCtx, 1), NewCache())
	if err != nil {
		t.Fatal(err)
	}
	dist := 80.0
	cached.CoOccurrences("car", dist)
	// Limit queries picked from ranked-candidate columns on the same
	// split: the first call builds the columns, and every call after it
	// asks a separation not asked before.
	minSep := mixCtx.FPS
	cached.LimitQuery("car", query.CountPredicate{N: 3}, 5, minSep)
	// BusyFrames replayed from count-run columns on the same split: the
	// first call builds the car and bus columns, and every call after it
	// asks an (nA, nB) not asked before.
	busyA, busyB := 2, 1
	cached.BusyFrames("car", busyA, "bus", busyB)
	// Warm passes: every cached kind asked again with the parameters of a
	// pass already answered, on the four-segment split and on one segment
	// of the same clips.
	whole, err := NewSharded("test", mixCtx, SplitSegments(mixClips, mixCtx, len(mixClips)), NewCache())
	if err != nil {
		t.Fatal(err)
	}
	warmPass(cached)()
	warmPass(whole)()
	for _, g := range []struct {
		name string
		max  float64
		run  func()
	}{
		// Per clip: nothing. Per call: the answer and the sweep's active
		// list, sized once to the largest clip's tracks: 3, under -race
		// too. (Grown by doubling, the list took it to 9, and 15 under
		// -race, where a slice grows in twice as many steps.)
		{"AvgVisible", perClipBudget(1) + 12, func() { s.AvgVisible("car") }},
		// Per clip: the answer's frame list growing by doubling. Per call:
		// two sweeps' active lists, sized once: 57, under -race too (68
		// and 78 with the lists grown by doubling).
		{"BusyFrames", perClipBudget(14) + 24, func() { s.BusyFrames("car", 3, "bus", 1) }},
		// Per clip: nothing. Per call: the answer, and the interpolators,
		// the active list and the centres buffer, each sized once to the
		// largest clip's tracks: 4, and 5 under -race. (With the active
		// list and the centres growing to the peak visible count it was 16,
		// and 29 under -race; through the shared frame core, 58: centres
		// and boxes per clip.)
		{"CoOccurrences", 32, func() { s.CoOccurrences("car", 80) }},
		// Per segment: the answer and its cache entry, the column's key and
		// lookup. Per call: the answer's key, the probes' misses, the
		// scatter and the merge. 24 a call, under -race too (29 to 32
		// when every segment went through the scatter's goroutines and
		// the keys were formatted). Nothing per frame or pair: the count
		// reads a column of 42k distances a clip here.
		{"CoOccurrences from columns", float64(7*len(cached.Segments()) + 12), func() { dist += 2; cached.CoOccurrences("car", dist) }},
		// Per clip: five matches with boxes and owners looked up again,
		// each grown by append. (Region and hot spot predicates build
		// their matched list inside Eval on every frame they look at;
		// that is theirs, not the sweep's, and is not gated here.)
		{"LimitQuery", perClipBudget(80) + 32, func() { s.LimitQuery("car", query.CountPredicate{N: 3}, 5, ctx.FPS) }},
		// Per segment and picked frame: the point lookup's boxes and
		// owners, each grown by append to the frame's visible count (8 on
		// average here): about 8. Per segment: the picks growing to five,
		// the answer and its cache entry, the column's key and lookup:
		// about 9. 194 a call, 202 under -race; nothing per frame or
		// candidate, however long the clips.
		{"LimitQuery from columns", float64(len(cached.Segments())*(10*5+16) + 12), func() {
			minSep++
			cached.LimitQuery("car", query.CountPredicate{N: 3}, 5, minSep)
		}},
		// Per segment: the answer's frame list growing by doubling (about
		// ten steps here), the answer and its cache entry, the two
		// columns' keys and lookups: about 13. Per call: the answer's key,
		// the scatter and the merge. 45 a call, under -race too; nothing
		// per frame or run, however long the clips.
		{"BusyFrames from columns", float64(len(cached.Segments())*18 + 12), func() {
			busyA, busyB = 2+busyB%3, busyB+1
			cached.BusyFrames("car", busyA, "bus", busyB)
		}},
		// Per call: the key, the closure the segments' runs would share,
		// the per-segment slots and the merged answer; 4 a kind, 32 a pass
		// of the eight cached kinds, under -race too. Nothing per segment:
		// the same on one segment as on four.
		{"Warm pass", 32, warmPass(cached)},
		{"Warm pass, one segment", 32, warmPass(whole)},
	} {
		if got := testing.AllocsPerRun(5, g.run); got > g.max {
			t.Errorf("%s: %.0f allocs per call, want at most %.0f", g.name, got, g.max)
		} else {
			t.Logf("%s: %.0f allocs per call (budget %.0f)", g.name, got, g.max)
		}
	}
}

// TestTrackQueryAllocGate keeps the track-level kinds off the allocator.
// Speeding and HardBraking read a column: they allocate the answer, one
// slice per call and per clip its track list, counted before it is made,
// and nothing per track; as scans they allocated a speeds slice per track,
// 2000 a call here. DwellTime allocates, per call, the answer, one mask
// that grows to the largest clip and the region's edge boxes, and per clip
// its map, sized once to the tracks the mask keeps; nothing per track,
// block, pair or frame. PathBreakdown allocates the answer and one map per clip,
// sized to the movements; nothing per track.
func TestTrackQueryAllocGate(t *testing.T) {
	perClip, ctx := benchWorkload()
	s := New(perClip, ctx)
	region := randRegion(rand.New(rand.NewSource(1)), ctx)
	movements := benchMovements(ctx)
	perClipBudget := func(n int) float64 { return float64(n * len(perClip)) }
	for _, g := range []struct {
		name string
		max  float64
		run  func()
	}{
		// 500 tracks a clip: 5, under -race too. (Grown by doubling, the
		// track list took about ten steps a clip: 49 a call.)
		{"Speeding", perClipBudget(1) + 1, func() { s.Speeding(800) }},
		{"HardBraking", perClipBudget(1) + 1, func() { s.HardBraking(250) }},
		// A map sized to the tracks the mask keeps: its header and its
		// tables, four allocations. (Grown from empty, 14 a clip: 59 a
		// call.)
		{"DwellTime", perClipBudget(4) + 3, func() { s.DwellTime("car", region) }},
		// One map of four movements a clip: its header and its one group.
		{"PathBreakdown", perClipBudget(2) + 1, func() { s.PathBreakdown("car", movements, 0.22*float64(ctx.NomW)) }},
	} {
		if got := testing.AllocsPerRun(5, g.run); got > g.max {
			t.Errorf("%s: %.0f allocs per call, want at most %.0f", g.name, got, g.max)
		} else {
			t.Logf("%s: %.0f allocs per call (budget %.0f)", g.name, got, g.max)
		}
	}
}
