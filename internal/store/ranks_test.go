package store

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"otif/internal/query"
)

// limitStep asks a cached Sharded for LimitQuery("car", pred, 5, minSep)
// and requires the monolithic store's answer. It returns what the call
// examined (store.candidates_examined) beside what the point lookups for
// the answer's boxes examine, which are equal exactly when no segment
// swept: a sweep examines every track of a clip whose first frame it
// reaches, and a ranked-candidate column leaves only the lookups.
func limitStep(t *testing.T, sh *Sharded, mono *Segment, pred query.FramePredicate, minSep int) (examined, lookups int64) {
	t.Helper()
	want := mono.LimitQuery("car", pred, 5, minSep)
	e0 := metCandExamined.Value()
	got := sh.LimitQuery("car", pred, 5, minSep)
	examined = metCandExamined.Value() - e0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LimitQuery(car, %#v, 5, %d) = %v through the cache, %v through the monolithic store", pred, minSep, got, want)
	}
	for c, matches := range got {
		sg, off := sh.locate(c)
		for _, m := range matches {
			_, n := sg.clips[off].active(m.FrameIdx, nil)
			lookups += int64(n)
		}
	}
	return examined, lookups
}

// TestLimitColumnRefusedOrEvicted follows limit queries through a cached
// Sharded, asked at a new separation each call: with every column refused
// each call sweeps and no column exists; with columns admitted, a call
// after the first examines nothing beyond its point lookups; a column
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
			if ex, lk := limitStep(t, sh, mono, pred, minSep); ex == lk {
				t.Fatalf("%#v, separation %d: examined %d candidates, only the lookups', with every column refused", pred, minSep, ex)
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
		if ex, lk := limitStep(t, sh, mono, pred, 5); ex == lk {
			t.Fatalf("%#v: the first call examined only its lookups; it should sweep to build the columns", pred)
		}
		if ex, lk := limitStep(t, sh, mono, pred, 6); ex != lk {
			t.Fatalf("%#v: the second call examined %d candidates, its lookups %d; want the columns", pred, ex, lk)
		}
		ev := evicting.lru.Stats().Evictions
		for i := 0; i < 63; i++ {
			sh.AvgVisible(fmt.Sprintf("%d%s", i, strings.Repeat("x", 64<<10)))
		}
		if evicting.lru.Stats().Evictions-ev < int64(len(segs)) {
			t.Fatal("the flood of queries evicted fewer entries than the columns")
		}
		if ex, lk := limitStep(t, sh, mono, pred, 7); ex == lk {
			t.Fatalf("%#v: the call after the eviction examined only its lookups; the columns should be gone", pred)
		}
		if ex, lk := limitStep(t, sh, mono, pred, 8); ex != lk {
			t.Fatalf("%#v: the rebuilt columns did not answer: %d candidates examined, %d by the lookups", pred, ex, lk)
		}
	}
}
