package store

import (
	"math/rand"
	"reflect"
	"testing"

	"otif/internal/geom"
	"otif/internal/query"
)

// shardedFixture builds a randomized 7-clip dataset (with an empty and a
// tiny clip mixed in) plus the monolithic reference store.
func shardedFixture(seed int64) ([][]*query.Track, *Segment, query.Context, *rand.Rand) {
	ctx := testCtx()
	r := rand.New(rand.NewSource(seed))
	perClip := [][]*query.Track{
		genTracks(r, 5+r.Intn(40), ctx.Frames, ctx),
		genTracks(r, r.Intn(10), ctx.Frames, ctx),
		nil, // empty clip
		genTracks(r, 20, ctx.Frames, ctx),
		genTracks(r, 1, ctx.Frames, ctx),
		genTracks(r, 15+r.Intn(15), ctx.Frames, ctx),
		genTracks(r, 8, ctx.Frames, ctx),
	}
	return perClip, New(perClip, ctx), ctx, r
}

// TestShardedDifferential is the scatter-gather acceptance test: for every
// split K ∈ {1,2,3,7} of a 7-clip dataset, with the result cache off, on,
// and warm, every query builder terminal over the Sharded store must be
// element-for-element identical (reflect.DeepEqual over the full result
// structures) to the same query over one Segment of every clip.
func TestShardedDifferential(t *testing.T) {
	movements := []query.Movement{
		{Name: "a", Path: geom.Path{{X: 0, Y: 0}, {X: 640, Y: 360}}},
		{Name: "b", Path: geom.Path{{X: 640, Y: 0}, {X: 0, Y: 360}}},
	}
	for seed := int64(0); seed < 4; seed++ {
		perClip, mono, ctx, r := shardedFixture(seed)
		region := randRegion(r, ctx)
		dist := 40 + r.Float64()*100
		preds := []query.FramePredicate{
			query.CountPredicate{N: 1 + r.Intn(4)},
			query.RegionPredicate{Region: randRegion(r, ctx), N: 1 + r.Intn(3)},
			query.HotSpotPredicate{Radius: 30 + r.Float64()*80, N: 2},
		}

		// clipsPerSeg 7,4,3,1 over 7 clips → K = 1, 2, 3, 7 segments.
		for _, clipsPerSeg := range []int{7, 4, 3, 1} {
			for _, cache := range []*Cache{nil, NewCache()} {
				segs := SplitSegments(perClip, ctx, clipsPerSeg)
				sh, err := NewSharded("test", ctx, segs, cache)
				if err != nil {
					t.Fatal(err)
				}
				wantK := (len(perClip) + clipsPerSeg - 1) / clipsPerSeg
				if len(sh.Segments()) != wantK {
					t.Fatalf("clipsPerSeg=%d: %d segments, want %d", clipsPerSeg, len(sh.Segments()), wantK)
				}
				// Two rounds: the second answers cache-on queries from the
				// cache, which must be just as bit-identical as computing.
				for round := 0; round < 2; round++ {
					check := func(what string, got, want any) {
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d clipsPerSeg=%d cache=%v round %d: %s diverged from monolithic store\n got: %v\nwant: %v",
								seed, clipsPerSeg, cache != nil, round, what, got, want)
						}
					}
					for _, cat := range []string{"", "car", "bus", "nosuch"} {
						check("CountTracks("+cat+")", sh.CountTracks(cat), mono.CountTracks(cat))
						check("AvgVisible("+cat+")", sh.AvgVisible(cat), mono.AvgVisible(cat))
						check("CoOccurrences("+cat+")", sh.CoOccurrences(cat, dist), mono.CoOccurrences(cat, dist))
						check("DwellTime("+cat+")", sh.DwellTime(cat, region), mono.DwellTime(cat, region))
						for _, pred := range preds {
							check("LimitQuery("+cat+")",
								sh.LimitQuery(cat, pred, 3, 5), mono.LimitQuery(cat, pred, 3, 5))
						}
					}
					check("PathBreakdown", sh.PathBreakdown("car", movements, 200), mono.PathBreakdown("car", movements, 200))
					check("BusyFrames", sh.BusyFrames("car", 2, "bus", 1), mono.BusyFrames("car", 2, "bus", 1))
					check("HardBraking", sh.HardBraking(250), mono.HardBraking(250))
					check("Speeding", sh.Speeding(800), mono.Speeding(800))
					for clip := 0; clip < len(perClip); clip++ {
						check("Tracks", sh.Tracks(clip), mono.Tracks(clip))
						for f := 0; f < ctx.Frames; f += 37 {
							gb, go_ := sh.VisibleBoxes(clip, "car", f)
							wb, wo := mono.VisibleBoxes(clip, "car", f)
							check("VisibleBoxes boxes", gb, wb)
							check("VisibleBoxes owners", go_, wo)
						}
					}
				}
				if cache != nil {
					st := cache.Stats()
					if st.Fills == 0 {
						t.Fatalf("clipsPerSeg=%d: cache recorded no fills", clipsPerSeg)
					}
					if st.Hits == 0 {
						t.Fatalf("clipsPerSeg=%d: second round recorded no cache hits", clipsPerSeg)
					}
				}
			}
		}
	}
}

// TestCacheKeysInjective asks a cached Sharded, at every split K ∈
// {1,2,3,7}, queries whose parameters could spell each other's cache keys,
// and requires each answer to equal the same query over an uncached
// Sharded. Categories and movement names come from an alphabet holding the
// characters a key puts between and around parameters. Before keys quoted
// their parameters, BusyFrames("a|1|b", 2, "c", 1) and
// BusyFrames("a", 1, "b|2|c", 1) rendered one key and the second got the
// first's answer; a movement name could forge a breakdown key the same way.
// Last, two datasets that share a cache and their segment ids must not
// answer for each other.
func TestCacheKeysInjective(t *testing.T) {
	const alphabet = `ab12|{}%"c`
	ctx := testCtx()
	r := rand.New(rand.NewSource(1))
	randCat := func() string {
		b := make([]byte, 1+r.Intn(4))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	cats := []string{"a|1|b", "c", "a", "b|2|c", "x"}
	for len(cats) < 10 {
		cats = append(cats, randCat())
	}
	world := func() [][]*query.Track {
		perClip := make([][]*query.Track, 7)
		for i := range perClip {
			perClip[i] = genTracks(r, 60, ctx.Frames, ctx)
			for _, tr := range perClip[i] {
				tr.Category = cats[r.Intn(len(cats))]
			}
		}
		return perClip
	}
	perClip := world()
	path := geom.Path{{X: 0, Y: 0}, {X: 640, Y: 360}}
	type call func(sh *Sharded) any
	calls := []call{
		func(sh *Sharded) any { return sh.BusyFrames("a|1|b", 2, "c", 1) },
		func(sh *Sharded) any { return sh.BusyFrames("a", 1, "b|2|c", 1) },
		func(sh *Sharded) any {
			return sh.PathBreakdown("x", []query.Movement{{Name: "a|900|[{m", Path: path}}, 500)
		},
		func(sh *Sharded) any {
			return sh.PathBreakdown("x|500|[{a", []query.Movement{{Name: "m", Path: path}}, 900)
		},
	}
	for i := 0; i < 40; i++ {
		catA, catB, nA, nB, name := randCat(), randCat(), r.Intn(3), r.Intn(3), randCat()
		calls = append(calls,
			func(sh *Sharded) any { return sh.BusyFrames(catA, nA, catB, nB) },
			func(sh *Sharded) any { return sh.CountTracks(catA) },
			func(sh *Sharded) any { return sh.AvgVisible(catB) },
			func(sh *Sharded) any { return sh.CoOccurrences(catA, 80) },
			func(sh *Sharded) any { return sh.LimitQuery(catB, query.CountPredicate{N: nA}, 3, nB) },
			func(sh *Sharded) any {
				return sh.PathBreakdown(catA, []query.Movement{{Name: name, Path: path}}, 400)
			},
		)
	}
	for _, clipsPerSeg := range []int{7, 4, 3, 1} {
		segs := SplitSegments(perClip, ctx, clipsPerSeg)
		cached, err := NewSharded("test", ctx, segs, NewCache())
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewSharded("test", ctx, segs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range calls {
			if got, want := c(cached), c(plain); !reflect.DeepEqual(got, want) {
				t.Fatalf("clipsPerSeg=%d: call %d answered from another query's cache entry\n got: %v\nwant: %v", clipsPerSeg, i, got, want)
			}
		}
	}

	other := world()
	cache := NewCache()
	for _, w := range []struct {
		name    string
		perClip [][]*query.Track
	}{{"first", perClip}, {"second", other}} {
		sh, err := NewSharded(w.name, ctx, SplitSegments(w.perClip, ctx, 3), cache)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sh.CountTracks("c"), New(w.perClip, ctx).CountTracks("c"); !reflect.DeepEqual(got, want) {
			t.Errorf("dataset %s answered from another dataset's segments: got %v, want %v", w.name, got, want)
		}
	}
}

// TestNewShardedValidation pins the tiling, context and id invariants:
// segments that leave a gap, overlap, disagree on clip geometry or share an
// id are rejected.
func TestNewShardedValidation(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(1)

	segs := SplitSegments(perClip, ctx, 3)
	if _, err := NewSharded("test", ctx, segs, nil); err != nil {
		t.Fatalf("valid tiling rejected: %v", err)
	}

	// Gap: drop the middle segment.
	gap := []*Segment{segs[0], segs[2]}
	if _, err := NewSharded("test", ctx, gap, nil); err == nil {
		t.Error("tiling with a gap accepted")
	}

	// Out of order.
	swapped := []*Segment{segs[1], segs[0], segs[2]}
	if _, err := NewSharded("test", ctx, swapped, nil); err == nil {
		t.Error("out-of-order segments accepted")
	}

	// Context mismatch.
	other := ctx
	other.FPS++
	bad := []*Segment{NewSegment(SegmentID(0), 0, perClip, other)}
	if _, err := NewSharded("test", ctx, bad, nil); err == nil {
		t.Error("segment with mismatched context accepted")
	}

	// Two segments under one id: they would share result-cache entries.
	dup := []*Segment{NewSegment("a", 0, perClip[:3], ctx), NewSegment("a", 3, perClip[3:], ctx)}
	if _, err := NewSharded("test", ctx, dup, nil); err == nil {
		t.Error("segments with one id accepted")
	}
}

// TestShardedLocatePanics pins the out-of-range contract for point lookups.
func TestShardedLocatePanics(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(2)
	sh, err := NewSharded("test", ctx, SplitSegments(perClip, ctx, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, clip := range []int{-1, sh.Clips()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Tracks(%d) did not panic", clip)
				}
			}()
			sh.Tracks(clip)
		}()
	}
}

// TestWarmCallDoesNoSegmentWork asks a Live store's snapshot — three
// sealed segments behind a result cache and an open tail — every cached
// kind twice. The second call must answer each sealed segment with one
// cache hit and no fill or shared fill, run no query on them
// (store.queries counts only the tail's), and return the first call's
// answer. CountTracks is not cached: it reads every segment and touches
// no cache entry.
func TestWarmCallDoesNoSegmentWork(t *testing.T) {
	perClip, _, ctx, r := shardedFixture(3)
	live := NewLiveOptions("test", ctx, 2, NewCache())
	for _, tracks := range perClip {
		live.Append(tracks)
	}
	sh := live.Snapshot().(*Sharded)
	sealed := 0
	for _, sg := range sh.Segments() {
		if sg.sealed {
			sealed++
		}
	}
	if sealed != 3 || len(sh.Segments()) != 4 {
		t.Fatalf("%d segments, %d sealed; want 4 and 3", len(sh.Segments()), sealed)
	}
	region := randRegion(r, ctx)
	movements := []query.Movement{{Name: "a", Path: geom.Path{{X: 0, Y: 0}, {X: 640, Y: 360}}}}
	for _, k := range []struct {
		name string
		call func() any
	}{
		{"PathBreakdown", func() any { return sh.PathBreakdown("car", movements, 200) }},
		{"LimitQuery", func() any { return sh.LimitQuery("car", query.CountPredicate{N: 2}, 3, 5) }},
		{"LimitQuery hot spot", func() any { return sh.LimitQuery("", query.HotSpotPredicate{Radius: 90, N: 2}, 3, 5) }},
		{"AvgVisible", func() any { return sh.AvgVisible("car") }},
		{"BusyFrames", func() any { return sh.BusyFrames("car", 2, "bus", 1) }},
		{"CoOccurrences", func() any { return sh.CoOccurrences("car", 90) }},
		{"DwellTime", func() any { return sh.DwellTime("car", region) }},
		{"HardBraking", func() any { return sh.HardBraking(250) }},
		{"Speeding", func() any { return sh.Speeding(800) }},
	} {
		first := k.call()
		s0, q0 := sh.Cache().Stats(), metQueries.Value()
		second := k.call()
		s1, q1 := sh.Cache().Stats(), metQueries.Value()
		if hits := s1.Hits - s0.Hits; hits != int64(sealed) || s1.Fills != s0.Fills || s1.Dedup != s0.Dedup {
			t.Errorf("%s: the second call added %d hits, %d fills and %d shared fills; want %d, 0 and 0",
				k.name, hits, s1.Fills-s0.Fills, s1.Dedup-s0.Dedup, sealed)
		}
		if q1-q0 != 1 {
			t.Errorf("%s: the second call ran %d segment queries, want 1 (the open tail)", k.name, q1-q0)
		}
		if !reflect.DeepEqual(second, first) {
			t.Errorf("%s: the warm answer differs from the first\n got: %v\nwant: %v", k.name, second, first)
		}
	}
	s0, q0 := sh.Cache().Stats(), metQueries.Value()
	sh.CountTracks("car")
	if s1 := sh.Cache().Stats(); s1 != s0 || metQueries.Value()-q0 != int64(len(sh.Segments())) {
		t.Errorf("CountTracks moved the cache from %+v to %+v and ran %d segment queries; want no cache traffic and %d",
			s0, s1, metQueries.Value()-q0, len(sh.Segments()))
	}
}
