package store

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// busyStep asks a cached Sharded for BusyFrames(catA, nA, catB, nB) and
// requires the monolithic store's answer. It returns what the call examined
// (store.candidates_examined), which is 0 exactly when no segment swept: a
// sweep examines every track of a clip whose first frame it reaches, and a
// replay of count-run columns examines none.
func busyStep(t *testing.T, sh *Sharded, mono *Segment, catA string, nA int, catB string, nB int) int64 {
	t.Helper()
	want := mono.BusyFrames(catA, nA, catB, nB)
	e0 := metCandExamined.Value()
	got := sh.BusyFrames(catA, nA, catB, nB)
	examined := metCandExamined.Value() - e0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BusyFrames(%q, %d, %q, %d) = %v through the cache, %v through the monolithic store", catA, nA, catB, nB, got, want)
	}
	return examined
}

// TestCountRunColumnRefusedOrEvicted follows BusyFrames through a cached
// Sharded, for two categories and for one against itself, asked at a new
// (nA, nB) each call: with every column refused each call sweeps and no
// column exists; with columns admitted, a call after the first examines no
// track; a column evicted between calls is rebuilt by the next. Every
// answer equals the monolithic store's.
func TestCountRunColumnRefusedOrEvicted(t *testing.T) {
	perClip, mono, ctx, _ := shardedFixture(5)
	segs := SplitSegments(perClip, ctx, 3)
	for _, cats := range [][2]string{{"car", "bus"}, {"car", "car"}, {"", ""}} {
		catA, catB := cats[0], cats[1]
		refusing := newCache(4 << 20)
		refusing.columnMax = 0 // smaller than any column, empty ones included
		sh, err := NewSharded("test", ctx, segs, refusing)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 4; n++ {
			if busyStep(t, sh, mono, catA, 1+n%2, catB, n/2) == 0 {
				t.Fatalf("%q/%q, call %d: examined no track with every column refused", catA, catB, n)
			}
		}
		for _, sg := range sh.Segments() {
			for _, cat := range cats {
				if col := sh.cachedRunColumn(sg, cat); col != nil {
					t.Fatalf("segment %s: a column of %d runs was built past a limit of 0 bytes", sg.id, len(col.runs))
				}
			}
		}

		// As in TestCoOccurrencesColumnRefusedOrEvicted: 4 MiB takes each
		// column (under 1 KiB here), and 63 average-visible queries over
		// 64 KiB categories push every one of them out.
		evicting := newCache(4 << 20)
		if sh, err = NewSharded("test", ctx, segs, evicting); err != nil {
			t.Fatal(err)
		}
		if busyStep(t, sh, mono, catA, 1, catB, 0) == 0 {
			t.Fatalf("%q/%q: the first call examined no track; it should sweep to build the columns", catA, catB)
		}
		if n := busyStep(t, sh, mono, catA, 2, catB, 1); n != 0 {
			t.Fatalf("%q/%q: the second call examined %d tracks; want the columns", catA, catB, n)
		}
		ev := evicting.lru.Stats().Evictions
		for i := 0; i < 63; i++ {
			sh.AvgVisible(fmt.Sprintf("%d%s", i, strings.Repeat("x", 64<<10)))
		}
		if evicting.lru.Stats().Evictions-ev < int64(len(segs)) {
			t.Fatal("the flood of queries evicted fewer entries than the columns")
		}
		if busyStep(t, sh, mono, catA, 1, catB, 1) == 0 {
			t.Fatalf("%q/%q: the call after the eviction examined no track; the columns should be gone", catA, catB)
		}
		if n := busyStep(t, sh, mono, catA, 2, catB, 2); n != 0 {
			t.Fatalf("%q/%q: the rebuilt columns did not answer: %d tracks examined", catA, catB, n)
		}
	}
}
