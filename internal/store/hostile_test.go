package store

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/query"
)

// hostileWorld is one seed's 7-clip fixture for TestDifferentialHostile:
// genTracks' mix (empty, single-detection and repeated-frame tracks among
// the ordinary ones) plus, in clip 0, one track of a single detection, one
// of two detections on the same frame, and tracks whose boxes have zero
// width, zero height or negative size, alone and beside ordinary boxes (a
// box without area still has a centre for a region to hold).
func hostileWorld(r *rand.Rand, ctx query.Context) [][]*query.Track {
	perClip := [][]*query.Track{
		genTracks(r, 10+r.Intn(25), ctx.Frames, ctx),
		genTracks(r, r.Intn(8), ctx.Frames, ctx),
		nil,
		genTracks(r, 12, ctx.Frames, ctx),
		genTracks(r, 1, ctx.Frames, ctx),
		genTracks(r, 5+r.Intn(10), ctx.Frames, ctx),
		genTracks(r, 6, ctx.Frames, ctx),
	}
	f := r.Intn(ctx.Frames)
	perClip[0] = append(perClip[0],
		&query.Track{ID: 1000, Category: "car", Dets: []detect.Detection{randDet(r, f, ctx)}},
		&query.Track{ID: 1001, Category: "car", Dets: []detect.Detection{randDet(r, f, ctx), randDet(r, f, ctx)}},
	)
	degenerate := []func(b geom.Rect) geom.Rect{
		func(b geom.Rect) geom.Rect { return geom.Rect{X: b.X, Y: b.Y} },
		func(b geom.Rect) geom.Rect { b.W = 0; return b },
		func(b geom.Rect) geom.Rect { b.H = 0; return b },
		func(b geom.Rect) geom.Rect { return geom.Rect{X: b.MaxX(), Y: b.MaxY(), W: -b.W, H: -b.H} },
	}
	for k, shrink := range degenerate {
		start := r.Intn(ctx.Frames - 20)
		alone := &query.Track{ID: 1010 + k, Category: "car"}
		mixed := &query.Track{ID: 1020 + k, Category: "car", Dets: []detect.Detection{randDet(r, start, ctx)}}
		for f := start; f < start+20; f += 1 + r.Intn(6) {
			d := randDet(r, f, ctx)
			d.Box = shrink(d.Box)
			alone.Dets = append(alone.Dets, d)
			if f > start {
				mixed.Dets = append(mixed.Dets, d)
			}
		}
		perClip[0] = append(perClip[0], alone, mixed)
	}
	return perClip
}

// hostileRegions is the list of regions TestDifferentialHostile asks about:
// every shape geom.Polygon.Contains accepts without complaint, placed where
// the pair walk's rectangle tests are most likely to disagree with it.
func hostileRegions(r *rand.Rand, ctx query.Context, tracks []*query.Track) []geom.Polygon {
	w, h := float64(ctx.NomW), float64(ctx.NomH)
	pt := func() geom.Point { return geom.Point{X: r.Float64() * w, Y: r.Float64() * h} }
	// A track with at least two detections, to aim regions at.
	var aim *query.Track
	for _, t := range tracks {
		if len(t.Dets) >= 2 && (aim == nil || r.Intn(3) == 0) {
			aim = t
		}
	}
	c0, c1 := aim.Dets[0].Box.Center(), aim.Dets[1].Box.Center()
	var ext geom.Rect
	for _, d := range aim.Dets {
		ext = ext.Union(d.Box)
	}
	nan, inf := math.NaN(), math.Inf(1)
	a, b, c, d := pt(), pt(), pt(), pt()
	return []geom.Polygon{
		randRegion(r, ctx),
		// Concave (an arrowhead) and self-intersecting (a bow tie).
		{{X: a.X, Y: a.Y}, {X: a.X + 200, Y: a.Y + 80}, {X: a.X, Y: a.Y + 160}, {X: a.X + 60, Y: a.Y + 80}},
		{{X: b.X, Y: b.Y}, {X: b.X + 180, Y: b.Y + 120}, {X: b.X + 180, Y: b.Y}, {X: b.X, Y: b.Y + 120}},
		{a, b, c, d, pt(), pt(), pt()}, // seven random vertices: usually both
		// Fewer than three vertices.
		nil,
		{a},
		{a, b},
		// Zero area: one point three times, three collinear points.
		{a, a, a},
		{a, {X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}, b},
		// A vertex exactly on a detection centre; an edge through two.
		{c0, {X: c0.X + 90, Y: c0.Y}, {X: c0.X, Y: c0.Y + 90}},
		{c0, c1, {X: (c0.X + c1.X) / 2, Y: (c0.Y+c1.Y)/2 + 70}},
		// Touching the track's extent only along its right and bottom edges.
		{{X: ext.MaxX(), Y: ext.Y}, {X: ext.MaxX() + 50, Y: ext.Y}, {X: ext.MaxX() + 50, Y: ext.MaxY()}, {X: ext.MaxX(), Y: ext.MaxY()}},
		{{X: ext.X, Y: ext.MaxY()}, {X: ext.MaxX(), Y: ext.MaxY()}, {X: ext.MaxX(), Y: ext.MaxY() + 40}, {X: ext.X, Y: ext.MaxY() + 40}},
		// Wholly outside and wholly covering the frame.
		{{X: 10 * w, Y: 10 * h}, {X: 11 * w, Y: 10 * h}, {X: 11 * w, Y: 11 * h}, {X: 10 * w, Y: 11 * h}},
		{{X: -100, Y: -100}, {X: w + 100, Y: -100}, {X: w + 100, Y: h + 100}, {X: -100, Y: h + 100}},
		// Coordinates that are not finite: the ray cast drops the edges
		// they end, and what is left still accepts points.
		{{X: 0, Y: 0}, {X: w, Y: 0}, {X: w, Y: h}, {X: nan, Y: h}},
		{{X: 0, Y: 0}, {X: w, Y: nan}, {X: w, Y: h}, {X: 0, Y: h}},
		{{X: a.X, Y: a.Y}, {X: inf, Y: a.Y}, {X: inf, Y: a.Y + 150}, {X: a.X, Y: a.Y + 150}},
		{{X: 0, Y: 0}, {X: w, Y: 0}, {X: w, Y: h}, {X: 0, Y: inf}},
		{{X: -inf, Y: -inf}, {X: inf, Y: -inf}, {X: inf, Y: inf}, {X: -inf, Y: inf}},
		{{X: b.X, Y: -inf}, {X: b.X + 120, Y: b.Y}, {X: b.X, Y: inf}, {X: b.X - 120, Y: b.Y}},
	}
}

// TestDifferentialHostile is the randomized differential test of the kinds
// that answer from the index alone, from the pair walk, a run at a time or
// from a derived column: over 200 worlds, DwellTime, Speeding, HardBraking,
// LimitQuery, CoOccurrences, AvgVisible and BusyFrames must equal the
// internal/query scans through one Segment of every clip, and equal that
// Segment through Sharded splits of 1, 2, 3 and 7 segments, each without a
// result cache and with one, and through a 3-segment split with a small cache, on
// the regions of hostileRegions, on the limit predicates of
// hostileLimitPreds (each asked two (limit, minSep) pairs in turn, so a
// cached split's first call builds its ranked-candidate columns and the
// second picks from them), on thresholds of 0, below 0, NaN, both
// infinities and exactly one track's own column value, on the distances of
// coocDists, on N of -1, 0, 1, a clip's peak and above it (BusyFrames of
// each of "", "car" and "nosuch" against the next and against itself, so a
// cached split's first call builds the count-run columns and the rest
// replay them), and (every eighth world) at a frame rate of 0.
func TestDifferentialHostile(t *testing.T) {
	kinds := map[string]queryKind{}
	for _, k := range queryKinds {
		kinds[k.name] = k
	}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		ctx := testCtx()
		if seed%8 == 7 {
			ctx.FPS = 0
		}
		perClip := hostileWorld(r, ctx)
		mono := New(perClip, ctx)
		var shards []*Sharded
		add := func(clipsPerSeg int, cache *Cache) {
			sh, err := NewSharded("test", ctx, SplitSegments(perClip, ctx, clipsPerSeg), cache)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, sh)
		}
		for _, clipsPerSeg := range []int{7, 4, 3, 1} {
			add(clipsPerSeg, nil)
			add(clipsPerSeg, NewCache())
		}
		// A cache of 64 KiB takes derived columns of 4 KiB: it refuses the
		// pair-distance columns of the busier segments and builds the rest.
		add(3, newCache(64<<10))
		sharded := func(what string, want any, run func(q Querier) any) {
			t.Helper()
			for _, sh := range shards {
				if got := run(sh); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %d segments, cache %v: %s diverged from the monolithic store\n got: %v\nwant: %v",
						seed, len(sh.Segments()), sh.Cache() != nil, what, got, want)
				}
			}
		}

		lr := rand.New(rand.NewSource(seed)) // the limit queries' draws
		for _, cat := range []string{"", "car"} {
			regions := hostileRegions(r, ctx, perClip[0])
			for _, region := range regions {
				p := queryParams{cat: cat, region: region}
				want := kinds["dwell"].both(t, mono, perClip, p)
				sharded("DwellTime", want, func(q Querier) any { return q.DwellTime(cat, region) })
			}
			for _, pred := range hostileLimitPreds(lr, seed, regions) {
				// On a cached split the first pair builds the segments'
				// ranked-candidate columns for pred and the second picks
				// from them.
				for _, pair := range [][2]int{{1 + lr.Intn(6), lr.Intn(12)}, {lr.Intn(20) - 1, lr.Intn(40)}} {
					p := queryParams{cat: cat, pred: pred, limit: pair[0], minSep: pair[1]}
					want := kinds["limit"].both(t, mono, perClip, p)
					sharded("LimitQuery", want, func(q Querier) any { return q.LimitQuery(cat, p.pred, p.limit, p.minSep) })
				}
			}
		}

		// On a cached split the first distance builds the category's
		// pair-distance columns and the rest count from them.
		for _, dist := range coocDists(r, perClip[0]) {
			for _, cat := range []string{"", "car"} {
				want := kinds["cooc"].both(t, mono, perClip, queryParams{cat: cat, dist: dist})
				sharded("CoOccurrences", want, func(q Querier) any { return q.CoOccurrences(cat, dist) })
			}
		}
		cats := []string{"", "car", "nosuch"}
		for i, cat := range cats {
			want := kinds["avgvisible"].both(t, mono, perClip, queryParams{cat: cat})
			sharded("AvgVisible", want, func(q Querier) any { return q.AvgVisible(cat) })
			peak := peakVisible(perClip, cat, ctx)
			ns := []int{-1, 0, 1, peak, peak + 1}
			// On a cached split the first call for a category builds its
			// count-run columns and the rest replay them: against the next
			// category, and against itself.
			for _, catB := range []string{cats[(i+1)%len(cats)], cat} {
				for j, n := range ns {
					p := queryParams{cat: cat, nA: n, catB: catB, nB: ns[len(ns)-1-j]}
					want := kinds["busy"].both(t, mono, perClip, p)
					sharded("BusyFrames", want, func(q Querier) any { return q.BusyFrames(p.cat, p.nA, p.catB, p.nB) })
				}
			}
		}

		own := perClip[0][r.Intn(len(perClip[0]))] // its column values are thresholds below
		thresholds := []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), r.Float64() * 3000,
			query.TrackSpeed(own, ctx.FPS).P50, query.MaxDecel(own, ctx.FPS)}
		for _, th := range thresholds {
			p := queryParams{threshold: th}
			want := kinds["speeding"].both(t, mono, perClip, p)
			sharded("Speeding", want, func(q Querier) any { return q.Speeding(th) })
			want = kinds["braking"].both(t, mono, perClip, p)
			sharded("HardBraking", want, func(q Querier) any { return q.HardBraking(th) })
		}
	}
}

// hostileLimitPreds are the frame predicates TestDifferentialHostile asks
// limit queries about: counts of N = -1, 0, 1, a random small N and more
// than any clip shows; region predicates over a seventh of regions, a
// different seventh each seed, at N from -1 to 3; and hot spots of radius 0,
// below 0, NaN, +Inf or a random one (by seed), and of a random radius.
func hostileLimitPreds(r *rand.Rand, seed int64, regions []geom.Polygon) []query.FramePredicate {
	var preds []query.FramePredicate
	for _, n := range []int{0, 1, 1 + r.Intn(4), 2000, -1} {
		preds = append(preds, query.CountPredicate{N: n})
	}
	for i, region := range regions {
		if (i+int(seed))%7 == 0 {
			preds = append(preds, query.RegionPredicate{Region: region, N: r.Intn(5) - 1})
		}
	}
	radii := []float64{0, -1, math.NaN(), math.Inf(1), 20 + 130*r.Float64()}
	return append(preds,
		query.HotSpotPredicate{Radius: radii[seed%int64(len(radii))], N: r.Intn(5) - 1},
		query.HotSpotPredicate{Radius: 20 + 130*r.Float64(), N: 1 + r.Intn(4)})
}

// coocDists are the CoOccurrences distances TestDifferentialHostile asks
// about: both zeros, below zero, NaN, both infinities, the smallest and the
// largest float, a random one, and exactly the centre distance of one pair
// of boxes visible together in the clip, which Dist <= dist must count.
func coocDists(r *rand.Rand, tracks []*query.Track) []float64 {
	dists := []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, math.MaxFloat64, r.Float64() * 200}
	for f := r.Intn(20); f < 150; f++ {
		if boxes, _ := query.VisibleBoxes(tracks, "", f); len(boxes) >= 2 {
			return append(dists, boxes[0].Center().Dist(boxes[len(boxes)-1].Center()))
		}
	}
	return dists
}

// peakVisible is the largest number of category tracks any clip shows in
// one frame.
func peakVisible(perClip [][]*query.Track, cat string, ctx query.Context) int {
	peak := 0
	for _, tracks := range perClip {
		for f := 0; f < ctx.Frames; f++ {
			boxes, _ := query.VisibleBoxes(tracks, cat, f)
			peak = max(peak, len(boxes))
		}
	}
	return peak
}

// TestDwellPairWalkSkipsAndSettles pins the block walk's useful-work ratio
// on a case with a known answer: a track crossing the frame left to right
// in steps of four frames, and a rectangle over the middle third. Blocks
// left and right of the rectangle are skipped whole as apart, a block well
// inside it is settled whole, and inside the blocks that straddle its two
// vertical edges pairs left and right of it are skipped as apart, pairs
// well inside it are settled without interpolating, and only the pairs that
// straddle an edge are walked frame by frame.
//
// The counts, derived by hand for dwellBlock = 4: detection k sits at
// frame 4k with its centre at x = 20k, so pair i (detections i-1 and i)
// spans x in [20(i-1), 20i]. The rectangle runs from x = 203 to 397, so
// pair 11 (x 200..220) straddles the left edge and pair 20 (x 380..400) the
// right one. The 30 pairs fall in eight blocks: pairs 1-4 (x 0..80), 5-8
// (80..160), 9-12 (160..240), 13-16 (240..320), 17-20 (320..400), 21-24
// (400..480), 25-28 (480..560) and 29-30 (560..600). Blocks 1, 2 and 6-8
// are apart from the rectangle and block 4 is settled inside it: 6 blocks
// skipped, none of their pairs walked. Blocks 3 and 5 reach an edge and are
// walked pair by pair: 8 pairs walked. Of those, pairs 9 and 10 are apart,
// 12, 17, 18 and 19 settled, and 11 and 20 interpolated: 6 skipped. The
// walk loads detections 8-12 and 16-20, each once: 10. (Block 4 needs no
// load: pair 12, settled inside, already gave its answer.)
func TestDwellPairWalkSkipsAndSettles(t *testing.T) {
	ctx := query.Context{FPS: 10, NomW: 600, NomH: 300, Frames: 121}
	tr := &query.Track{ID: 1, Category: "car"}
	for f := 0; f <= 120; f += 4 {
		tr.Dets = append(tr.Dets, detect.Detection{FrameIdx: f, Box: geom.Rect{X: float64(5*f) - 10, Y: 140, W: 20, H: 20}})
	}
	perClip := [][]*query.Track{{tr}}
	s := New(perClip, ctx)
	region := geom.Polygon{{X: 203, Y: 100}, {X: 397, Y: 100}, {X: 397, Y: 200}, {X: 203, Y: 200}}

	w0, s0, k0, b0 := metPairsWalked.Value(), metPairsSkipped.Value(), metBlocksSkipped.Value(), metIndexBoxes.Value()
	got := s.DwellTime("car", region)
	walked, skipped, blocks, boxes := metPairsWalked.Value()-w0, metPairsSkipped.Value()-s0, metBlocksSkipped.Value()-k0, metIndexBoxes.Value()-b0
	if want := query.DwellTime(perClip[0], "car", region, ctx); !reflect.DeepEqual(got[0], want) {
		t.Fatalf("DwellTime = %v, scan says %v", got[0], want)
	}
	// Centres sit at x = 5f: frames 41..79 are inside, 3.9 s.
	if got[0][1] != 3.9 {
		t.Errorf("dwell = %v s, want 3.9", got[0][1])
	}
	if dwellBlock != 4 {
		t.Fatalf("the counts below are derived for dwellBlock = 4, not %d", dwellBlock)
	}
	if walked != 8 || skipped != 6 || blocks != 6 || boxes != 10 {
		t.Errorf("walked %d pairs, skipped %d pairs and %d blocks, loaded %d detections; want 8, 6, 6, 10", walked, skipped, blocks, boxes)
	}
}
