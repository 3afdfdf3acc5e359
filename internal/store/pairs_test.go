package store

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// coocStep asks a cached Sharded for CoOccurrences("car", dist) and
// requires the monolithic store's answer; it returns the detections the
// call loaded from the geometry columns (store.index_boxes), which is 0
// exactly when every segment counted from its pair-distance column.
func coocStep(t *testing.T, sh *Sharded, mono *Segment, dist float64) int64 {
	t.Helper()
	want := mono.CoOccurrences("car", dist)
	b0 := indexBoxes()
	got := sh.CoOccurrences("car", dist)
	loaded := indexBoxes() - b0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CoOccurrences(car, %v) = %v through the cache, %v through the monolithic store", dist, got, want)
	}
	return loaded
}

// TestCoOccurrencesColumnAdmission follows one category through a cached
// Sharded: the first call builds the columns, walking the sweep to do so,
// and later calls at other distances count from them without loading a
// detection.
func TestCoOccurrencesColumnAdmission(t *testing.T) {
	perClip, mono, ctx, _ := shardedFixture(3)
	sh, err := NewSharded("test", ctx, SplitSegments(perClip, ctx, 3), NewCache())
	if err != nil {
		t.Fatal(err)
	}
	c := sh.Cache()
	if coocStep(t, sh, mono, 60) == 0 {
		t.Fatal("the first call loaded no detection; it should walk the sweep to build the columns")
	}
	if got, want := c.Len(), 2*len(sh.Segments()); got != want {
		t.Fatalf("after the first call the cache holds %d entries, want an answer and a column a segment (%d)", got, want)
	}
	hits := c.Stats().Hits
	for i, dist := range []float64{80, 0, math.Inf(1), math.NaN(), -1} {
		if n := coocStep(t, sh, mono, dist); n != 0 {
			t.Fatalf("call %d after the build loaded %d detections; want every segment counted from its column", i+2, n)
		}
	}
	// Each call hits one column per segment.
	if got, want := c.Stats().Hits-hits, int64(5*len(sh.Segments())); got != want {
		t.Errorf("five column answers hit the cache %d times, want %d", got, want)
	}
	for _, sg := range sh.Segments() {
		col := sh.cachedPairColumn(sg, "car")
		if col == nil {
			t.Fatalf("segment %s has no column", sg.id)
		}
		if n := col.off[len(col.off)-1]; len(col.dists) != n || cap(col.dists) != n {
			t.Errorf("segment %s: column of %d distances in a slice of %d/%d; the count pass must size it exactly", sg.id, n, len(col.dists), cap(col.dists))
		}
	}
}

// TestCoOccurrencesColumnRefusedOrEvicted: a column the cache's limit
// refuses is recorded as refused and the segment keeps walking; a column
// evicted between calls is rebuilt by the next. Every answer
// equals the monolithic store's.
func TestCoOccurrencesColumnRefusedOrEvicted(t *testing.T) {
	perClip, mono, ctx, _ := shardedFixture(5)
	segs := SplitSegments(perClip, ctx, 3)

	refusing := newCache(4 << 20)
	refusing.columnMax = 0 // smaller than any column, empty ones included
	sh, err := NewSharded("test", ctx, segs, refusing)
	if err != nil {
		t.Fatal(err)
	}
	for i, dist := range []float64{50, 60, 70, 80} {
		if coocStep(t, sh, mono, dist) == 0 {
			t.Fatalf("call %d loaded no detection with every column refused", i)
		}
	}
	for _, sg := range sh.Segments() {
		if col := sh.cachedPairColumn(sg, "car"); col != nil {
			t.Fatalf("segment %s: a column of %d distances was built past a limit of 0 bytes", sg.id, len(col.dists))
		}
	}

	// 4 MiB takes each column (256 KiB at most) and 63 counts over 64 KiB
	// categories are enough to push every one of them out.
	evicting := newCache(4 << 20)
	if sh, err = NewSharded("test", ctx, segs, evicting); err != nil {
		t.Fatal(err)
	}
	coocStep(t, sh, mono, 50)
	if n := coocStep(t, sh, mono, 60); n != 0 {
		t.Fatalf("the second call loaded %d detections; want the columns", n)
	}
	ev := evicting.lru.Stats().Evictions
	for i := 0; i < 63; i++ {
		sh.CountTracks(fmt.Sprintf("%d%s", i, strings.Repeat("x", 64<<10)))
	}
	if evicting.lru.Stats().Evictions-ev < int64(len(segs)) {
		t.Fatal("the flood of counts evicted fewer entries than the columns")
	}
	if coocStep(t, sh, mono, 80) == 0 {
		t.Fatal("the call after the eviction loaded no detection; the columns should be gone")
	}
	if n := coocStep(t, sh, mono, 90); n != 0 {
		t.Fatalf("the rebuilt columns did not answer: %d detections loaded", n)
	}
}

// TestLiveOpenSegmentWalks: a Live store's open segment changes on every
// append under one id, so it must never count from a column. Clips are
// appended one at a time into a store that seals every 4, and after each
// append CoOccurrences is asked three times at new distances; every answer
// must equal a monolithic store over the clips so far.
func TestLiveOpenSegmentWalks(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(6)
	live := NewLiveOptions("test", ctx, 4, NewCache())
	dist := 40.0
	for n, tracks := range perClip {
		live.Append(tracks)
		mono := New(perClip[:n+1], ctx)
		for i := 0; i < 3; i++ {
			dist += 7
			if got, want := live.Snapshot().CoOccurrences("car", dist), mono.CoOccurrences("car", dist); !reflect.DeepEqual(got, want) {
				t.Fatalf("after %d clips, call %d: CoOccurrences = %v, want %v", n+1, i, got, want)
			}
		}
	}
}
