package store

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"otif/internal/query"
)

// limitStep asks a cached Sharded for LimitQuery("car", pred, 5, minSep)
// and requires the monolithic store's answer, and that the call's point
// lookups (store.lookup_candidates_examined) examined exactly what the
// stabbing queries for the answer's frames examine. It returns what the
// call's sweeps examined (store.candidates_examined), which is 0 exactly
// when no segment swept: a sweep examines every track of a clip whose
// first frame it reaches, and a ranked-candidate column leaves only the
// lookups.
func limitStep(t *testing.T, sh *Sharded, mono *Segment, pred query.FramePredicate, minSep int) (swept int64) {
	t.Helper()
	want := mono.LimitQuery("car", pred, 5, minSep)
	e0, l0 := metCandExamined.Value(), metLookupExamined.Value()
	got := sh.LimitQuery("car", pred, 5, minSep)
	swept, looked := metCandExamined.Value()-e0, metLookupExamined.Value()-l0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LimitQuery(car, %#v, 5, %d) = %v through the cache, %v through the monolithic store", pred, minSep, got, want)
	}
	var lookups int64
	for c, matches := range got {
		sg, off := sh.locate(c)
		for _, m := range matches {
			_, n := sg.clips[off].active(m.FrameIdx, nil)
			lookups += int64(n)
		}
	}
	if looked != lookups {
		t.Fatalf("LimitQuery(car, %#v, 5, %d): the point lookups examined %d candidates, the answer's frames hold %d", pred, minSep, looked, lookups)
	}
	return swept
}

// TestLimitColumnRefusedOrEvicted follows limit queries through a cached
// Sharded, asked at a new separation each call: with every column refused
// each call sweeps and no column exists; with columns admitted, a call
// after the first sweeps nothing and only looks its frames up; a column
// evicted between calls is rebuilt by the next. Every answer equals the
// monolithic store's.
func TestLimitColumnRefusedOrEvicted(t *testing.T) {
	perClip, mono, ctx, _ := shardedFixture(5)
	segs := SplitSegments(perClip, ctx, 3)
	for _, pred := range []query.FramePredicate{query.CountPredicate{N: 2}, query.HotSpotPredicate{Radius: 120, N: 2}} {
		refusing := newCache(4 << 20)
		refusing.columnMax = 0 // smaller than any column, empty ones included
		sh, err := NewSharded("test", ctx, segs, refusing)
		if err != nil {
			t.Fatal(err)
		}
		for minSep := 5; minSep < 9; minSep++ {
			if swept := limitStep(t, sh, mono, pred, minSep); swept == 0 {
				t.Fatalf("%#v, separation %d: no segment swept with every column refused", pred, minSep)
			}
		}
		for _, sg := range sh.Segments() {
			if col := sh.cachedRankColumn(sg, "car", pred); col != nil {
				t.Fatalf("%#v: segment %s: a column of %d candidates was built past a limit of 0 bytes", pred, sg.id, len(col.cands))
			}
		}

		// As in TestCoOccurrencesColumnRefusedOrEvicted: 4 MiB takes each
		// column (under 4 KiB here), and 63 average-visible queries over
		// 64 KiB categories push every one of them out.
		evicting := newCache(4 << 20)
		if sh, err = NewSharded("test", ctx, segs, evicting); err != nil {
			t.Fatal(err)
		}
		if swept := limitStep(t, sh, mono, pred, 5); swept == 0 {
			t.Fatalf("%#v: the first call swept nothing; it should sweep to build the columns", pred)
		}
		if swept := limitStep(t, sh, mono, pred, 6); swept != 0 {
			t.Fatalf("%#v: the second call swept %d candidates; want the columns", pred, swept)
		}
		ev := evicting.lru.Stats().Evictions
		for i := 0; i < 63; i++ {
			sh.AvgVisible(fmt.Sprintf("%d%s", i, strings.Repeat("x", 64<<10)))
		}
		if evicting.lru.Stats().Evictions-ev < int64(len(segs)) {
			t.Fatal("the flood of queries evicted fewer entries than the columns")
		}
		if swept := limitStep(t, sh, mono, pred, 7); swept == 0 {
			t.Fatalf("%#v: the call after the eviction swept nothing; the columns should be gone", pred)
		}
		if swept := limitStep(t, sh, mono, pred, 8); swept != 0 {
			t.Fatalf("%#v: the rebuilt columns did not answer: %d candidates swept", pred, swept)
		}
	}
}

// TestLimitColumnAllocatesOnce: a cold first LimitQuery on a two-segment
// split of the query-mix shape, which builds every segment's
// ranked-candidate column and picks from it, allocates no more bytes than
// the uncached call beside the columns themselves. The build ranks into
// the column's one allocation; grown by append and copied to its length,
// it took 240 KB against the uncached call's 93 KB and the columns' 45 KB.
func TestLimitColumnAllocatesOnce(t *testing.T) {
	perClip, ctx := queryMixWorkload()
	segs := SplitSegments(perClip, ctx, 2)
	pred := query.CountPredicate{N: 3}
	allocated := func(cache *Cache) (bytes, columns int64) {
		sh, err := NewSharded("test", ctx, segs, cache)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sh.LimitQuery("car", pred, 5, ctx.FPS)
		runtime.ReadMemStats(&after)
		for _, sg := range sh.Segments() {
			columns += resultBytes(sh.cachedRankColumn(sg, "car", pred))
		}
		return int64(after.TotalAlloc - before.TotalAlloc), columns
	}
	uncached, cold := int64(math.MaxInt64), int64(math.MaxInt64) // the least of five, against stray allocations
	var columns int64
	for i := 0; i < 5; i++ {
		u, _ := allocated(nil)
		c, cols := allocated(NewCache())
		uncached, cold, columns = min(uncached, u), min(cold, c), cols
	}
	if columns == 0 {
		t.Fatal("the cached call left no column")
	}
	if cold > uncached+columns {
		t.Errorf("a cold cached LimitQuery allocated %d bytes, more than the uncached call's %d and the columns' %d together", cold, uncached, columns)
	} else {
		t.Logf("cold cached call %d bytes, uncached %d, columns %d", cold, uncached, columns)
	}
}
