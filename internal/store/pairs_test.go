package store

import (
	"encoding/binary"
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

	// 4 MiB takes each column (256 KiB at most) and 63 average-visible
	// queries over 64 KiB categories are enough to push every one of them
	// out.
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
		sh.AvgVisible(fmt.Sprintf("%d%s", i, strings.Repeat("x", 64<<10)))
	}
	if evicting.lru.Stats().Evictions-ev < int64(len(segs)) {
		t.Fatal("the flood of queries evicted fewer entries than the columns")
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

// FuzzPairColumn holds a clip's bucketed count to the linear one, on raw
// float bits for the distances, for dist, for the frame diagonal the
// buckets span and for the bucket count: NaN, both infinities, both
// zeros, subnormals, the largest float and values on a bucket's edge
// among them, a diagonal of 0, NaN or Inf included. The grouping must
// keep every distance but the NaN ones, each in the bucket of() names, and
// the count must equal the walk's comparison, d <= dist, over every
// distance, at dist and at each distance of the clip and its neighbours.
func FuzzPairColumn(f *testing.F) {
	f.Add([]byte{}, math.Float64bits(1), math.Float64bits(734), uint16(0))
	f.Add(pairFuzzBytes(0, 1, 2.5, 733.9), math.Float64bits(2), math.Float64bits(734), uint16(3))
	f.Fuzz(func(t *testing.T, raw []byte, distBits, diagBits uint64, buckets uint16) {
		dists := make([]float64, len(raw)/8)
		for i := range dists {
			dists[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		nb := 1 + int(buckets)%maxPairBuckets
		b := newPairBuckets(make([]int32, nb+1), math.Float64frombits(diagBits))
		col := append([]float64(nil), dists...)
		kept := b.group(col, make([]float64, len(dists)))
		numbers := 0
		for _, d := range dists {
			if d == d {
				numbers++
			}
		}
		if kept != numbers || int(b.starts[0]) != 0 || int(b.starts[nb]) != kept {
			t.Fatalf("%d of %d distances kept, starts %d..%d; want the %d that are not NaN", kept, len(dists), b.starts[0], b.starts[nb], numbers)
		}
		for k := 0; k < nb; k++ {
			for _, d := range col[b.starts[k]:b.starts[k+1]] {
				if d != d || b.of(d) != k {
					t.Fatalf("bucket %d holds %v, whose bucket is %d", k, d, b.of(d))
				}
			}
		}
		asks := []float64{math.Float64frombits(distBits)}
		for _, d := range dists[:min(len(dists), 16)] {
			asks = append(asks, d, math.Nextafter(d, math.Inf(-1)), math.Nextafter(d, math.Inf(1)))
		}
		for _, dist := range asks {
			want := 0
			for _, d := range dists {
				if d <= dist {
					want++
				}
			}
			if got := b.count(col[:kept], dist); got != want {
				t.Fatalf("count(%v) = %d over %d buckets of scale %v, want %d", dist, got, nb, b.scale, want)
			}
		}
	})
}

// pairFuzzBytes is FuzzPairColumn's encoding of distances.
func pairFuzzBytes(dists ...float64) []byte {
	out := make([]byte, 0, 8*len(dists))
	for _, d := range dists {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(d))
	}
	return out
}
