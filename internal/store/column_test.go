package store

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/query"
)

// sameRect compares two boxes bit for bit (two NaNs with one payload are
// equal, and -0 is not 0).
func sameRect(a, b geom.Rect) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.W) == math.Float64bits(b.W) && math.Float64bits(a.H) == math.Float64bits(b.H)
}

// TestColumnBoxAtMatchesTrackBoxAt: interpolating over the geometry column
// returns Track.BoxAt's box bit for bit, at ascending frames with gaps, on
// tracks with repeated and decreasing frame indices, a single detection,
// and coordinates that are negative zero, not finite or huge; and a walk
// loads no detection before its first box and never more than the track
// has.
func TestColumnBoxAtMatchesTrackBoxAt(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	odd := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 5e-324}
	coord := func() float64 {
		if r.Intn(8) == 0 {
			return odd[r.Intn(len(odd))]
		}
		return r.Float64()*600 - 100
	}
	for trial := 0; trial < 500; trial++ {
		var tracks []*query.Track
		for id := 0; id < 3; id++ {
			tr := &query.Track{ID: id}
			// Steps of 0 repeat a frame; one in ten goes back.
			for f, n := r.Intn(20), r.Intn(12); len(tr.Dets) < n; {
				tr.Dets = append(tr.Dets, detect.Detection{FrameIdx: f, Box: geom.Rect{X: coord(), Y: coord(), W: coord(), H: coord()}})
				if f += r.Intn(4); r.Intn(10) == 0 {
					f -= 4
				}
			}
			tracks = append(tracks, tr)
		}
		ci := &New([][]*query.Track{tracks}, testCtx()).clips[0]
		for ti, tr := range tracks {
			pos := int32(-1)
			if ci.loaded(int32(ti), pos) != 0 {
				t.Fatalf("trial %d: a fresh walk loaded detections", trial)
			}
			for f := tr.FirstFrame(); len(tr.Dets) > 0 && f <= tr.LastFrame(); f += 1 + r.Intn(3) {
				got := ci.boxAt(int32(ti), &pos, f)
				if want, _ := tr.BoxAt(f); !sameRect(got, want) {
					t.Fatalf("trial %d track %d frame %d: column box %v, Track.BoxAt %v", trial, ti, f, got, want)
				}
			}
			if n := ci.loaded(int32(ti), pos); n > int64(len(tr.Dets)) {
				t.Fatalf("trial %d track %d: loaded %d of %d detections", trial, ti, n, len(tr.Dets))
			}
		}
	}
}

// TestIndexBuildAllocGate keeps the index build to a fixed number of
// allocations per clip: every column and index is one exact-size slice,
// so ten times the tracks and detections allocate exactly as often, and a
// column that fell back to append growth (or to a slice per track) would
// fail here.
func TestIndexBuildAllocGate(t *testing.T) {
	ctx := testCtx()
	world := func(tracksPerClip int) [][]*query.Track {
		r := rand.New(rand.NewSource(5))
		perClip := make([][]*query.Track, 4)
		for c := range perClip {
			perClip[c] = genTracks(r, tracksPerClip, ctx.Frames, ctx)
		}
		return perClip
	}
	small, large := world(50), world(500)
	allocs := func(perClip [][]*query.Track) float64 {
		return testing.AllocsPerRun(5, func() { New(perClip, ctx) })
	}
	// Per clip: 19 slices, two small maps (the category counts and the
	// postings) and sort.Slice's two swappers. Per call: the Segment and its
	// clip slice.
	const perClip, perCall = 25, 2
	a, b := allocs(small), allocs(large)
	if b != a || b > float64(perClip*len(large)+perCall) {
		t.Errorf("New allocates %.0f times for 50 tracks a clip and %.0f for 500; want equal and at most %d", a, b, perClip*len(large)+perCall)
	} else {
		t.Logf("New: %.0f allocs for 4 clips of 50 or 500 tracks", b)
	}
}

// TestRegionQueriesKeepDegenerateBoxes: a box of zero or negative size
// still has a centre, and region queries test centres. A track whose only
// centre in the region comes from such a box must not be pruned (the
// union of detection boxes the pruning once used skips empty boxes).
func TestRegionQueriesKeepDegenerateBoxes(t *testing.T) {
	ctx := query.Context{FPS: 10, NomW: 640, NomH: 360, Frames: 20}
	square := geom.Polygon{{X: 250, Y: 100}, {X: 350, Y: 100}, {X: 350, Y: 200}, {X: 250, Y: 200}}
	for _, far := range []geom.Rect{
		{X: 300, Y: 150},                  // zero by zero
		{X: 300, Y: 140, W: 0, H: 20},     // zero width
		{X: 290, Y: 150, W: 20, H: 0},     // zero height
		{X: 310, Y: 160, W: -20, H: -20},  // negative size, centre (300, 150)
		{X: 300, Y: 150, W: -1e-9, H: 40}, // barely negative
	} {
		tr := &query.Track{ID: 7, Category: "car", Dets: []detect.Detection{
			{FrameIdx: 0, Box: geom.Rect{X: 10, Y: 10, W: 20, H: 20}},
			{FrameIdx: 4, Box: far},
		}}
		perClip := [][]*query.Track{{tr}}
		s := New(perClip, ctx)
		want := query.DwellTime(perClip[0], "car", square, ctx)
		if len(want) == 0 {
			t.Fatalf("box %v: the scan sees no dwell; the fixture is wrong", far)
		}
		if got := s.DwellTime("car", square)[0]; !reflect.DeepEqual(got, want) {
			t.Errorf("box %v: DwellTime = %v, scan says %v", far, got, want)
		}
		pred := query.RegionPredicate{Region: square, N: 1}
		want2 := query.LimitQuery(perClip[0], "car", pred, ctx, 3, 0)
		if got := s.LimitQuery("car", pred, 3, 0)[0]; !reflect.DeepEqual(got, want2) {
			t.Errorf("box %v: region LimitQuery = %v, scan says %v", far, got, want2)
		}
	}
}

// fuzzBytes hands out a fuzz input's bytes, zeros once they run out.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// float is either raw float bits (NaNs with payloads, infinities,
// subnormals, huge values) or, three times in four, a small coordinate on
// a grid of half pixels, so the walk's rectangle tests meet regions near
// their edges.
func (b *fuzzBytes) float() float64 {
	if b.byte()%4 == 0 {
		var raw [8]byte
		for i := range raw {
			raw[i] = b.byte()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	}
	return float64(int(b.byte())<<1|int(b.byte()&1)) - 64
}

// fuzzTracks decodes one clip of tracks. Detection counts favour the ones
// at a dwell block's edges (pair counts of dwellBlock-1, dwellBlock,
// dwellBlock+1 and 2·dwellBlock), frame steps run from -1 to 3 (so frame
// indices repeat and go back), and boxes may be empty or inverted.
func fuzzTracks(b *fuzzBytes) []*query.Track {
	counts := []int{0, 1, 2, dwellBlock, dwellBlock + 1, dwellBlock + 2, 2*dwellBlock + 1}
	tracks := make([]*query.Track, 1+b.byte()%4)
	for id := range tracks {
		t := &query.Track{ID: id, Category: "car"}
		if b.byte()%5 == 0 {
			t.Category = "bus"
		}
		n := int(b.byte()) % (3*dwellBlock + len(counts))
		if n >= 3*dwellBlock {
			n = counts[n-3*dwellBlock]
		}
		f := int(b.byte() % 16)
		for range n {
			t.Dets = append(t.Dets, detect.Detection{FrameIdx: f, Box: geom.Rect{X: b.float(), Y: b.float(), W: b.float(), H: b.float()}})
			f += int(b.byte()%5) - 1
		}
		tracks[id] = t
	}
	return tracks
}

// FuzzDwellTime holds the block walk to the scan on arbitrary tracks and
// arbitrary polygons: Segment.DwellTime must equal query.DwellTime.
func FuzzDwellTime(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 9, 0, 1, 50, 1, 50, 1, 10, 1, 10, 2, 1, 60, 1, 50, 1, 10, 1, 10, 2})
	f.Add([]byte{1, 1, 17, 3, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 40, 1, 40, 1, 20, 1, 20, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		ctx := query.Context{FPS: 10, NomW: 640, NomH: 360, Frames: 64}
		tracks := fuzzTracks(&b)
		region := make(geom.Polygon, b.byte()%7)
		for i := range region {
			region[i] = geom.Point{X: b.float(), Y: b.float()}
		}
		s := New([][]*query.Track{tracks}, ctx)
		for _, cat := range []string{"", "car"} {
			want := query.DwellTime(tracks, cat, region, ctx)
			if got := s.DwellTime(cat, region)[0]; !reflect.DeepEqual(got, want) {
				t.Fatalf("category %q, region %v: DwellTime = %v, scan says %v", cat, region, got, want)
			}
		}
	})
}
