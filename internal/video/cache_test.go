package video

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func cacheTestFrame(w, h int, fill uint8) *Frame {
	f := NewFrame(w, h, w*4, h*4)
	for i := range f.Pix {
		f.Pix[i] = fill + uint8(i%7)
	}
	return f
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(1 << 20)
	f := cacheTestFrame(64, 36, 10)
	a := c.Downsample(f, 32, 18)
	b := c.Downsample(f, 32, 18)
	if a != b {
		t.Error("repeated downsample should return the cached frame")
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", s.Hits, s.Misses)
	}
	if s.Entries != 1 {
		t.Errorf("entries = %d, want 1", s.Entries)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}

func TestCacheResultsBitIdentical(t *testing.T) {
	c := NewCache(1 << 20)
	f := cacheTestFrame(64, 36, 42)
	want := f.Downsample(20, 12)
	got := c.Downsample(f, 20, 12)
	if !bytes.Equal(got.Pix, want.Pix) || got.W != want.W || got.H != want.H {
		t.Error("cached downsample differs from direct computation")
	}
	// And again from the cache.
	got2 := c.Downsample(f, 20, 12)
	if !bytes.Equal(got2.Pix, want.Pix) {
		t.Error("cache served a wrong frame on hit")
	}
}

func TestCacheSameSizeBypass(t *testing.T) {
	c := NewCache(1 << 20)
	f := cacheTestFrame(32, 32, 3)
	if got := c.Downsample(f, 32, 32); got != f {
		t.Error("same-size request should return the frame itself")
	}
	if s := c.Stats(); s.Hits+s.Misses != 0 {
		t.Error("same-size request should not touch the cache")
	}
}

func TestNilCacheComputes(t *testing.T) {
	var c *Cache
	f := cacheTestFrame(64, 36, 9)
	want := f.Downsample(16, 9)
	got := c.Downsample(f, 16, 9)
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Error("nil cache must still compute correct results")
	}
	if s := c.Stats(); s != (CacheStats{}) {
		t.Errorf("nil cache stats = %+v, want zeroes", s)
	}
}

// TestCacheLRUEviction: with room for three downsamples, the one least
// recently asked for is what a fourth evicts. (The list itself is pinned in
// internal/lru; this pins that a frame is charged its pixels plus
// cacheEntryOverhead and that a hit counts as a use.)
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(3 * (100 + cacheEntryOverhead))
	frames := make([]*Frame, 4)
	for i := range frames {
		frames[i] = cacheTestFrame(20, 20, uint8(i))
	}
	small := make([]*Frame, 4)
	for i, f := range frames[:3] {
		small[i] = c.Downsample(f, 10, 10) // len(Pix) = 100
	}
	// Touch frames[0] so frames[1] becomes least recently used.
	if c.Downsample(frames[0], 10, 10) != small[0] {
		t.Fatal("frames[0] should be cached")
	}
	c.Downsample(frames[3], 10, 10)
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 3 || s.Bytes != 3*(100+cacheEntryOverhead) {
		t.Fatalf("stats = %+v, want 1 eviction and 3 entries filling the budget", s)
	}
	if c.Downsample(frames[0], 10, 10) != small[0] || c.Downsample(frames[2], 10, 10) != small[2] {
		t.Error("recently used entries were evicted")
	}
	if c.Downsample(frames[1], 10, 10) == small[1] {
		t.Error("least recently used entry survived eviction")
	}
}

func TestCacheByteBudget(t *testing.T) {
	budget := int64(8 << 10)
	c := NewCache(budget)
	for i := 0; i < 200; i++ {
		f := cacheTestFrame(40, 30, uint8(i))
		c.Downsample(f, 20, 15) // 300 B payload each, distinct owners
	}
	s := c.Stats()
	if s.Bytes > budget {
		t.Errorf("cache holds %d bytes, budget %d", s.Bytes, budget)
	}
	if s.Evictions == 0 {
		t.Error("expected evictions under a tight budget")
	}
}

func TestCacheOversizedEntryUncached(t *testing.T) {
	c := NewCache(256) // far below any frame
	f := cacheTestFrame(64, 36, 5)
	got := c.Downsample(f, 32, 18)
	want := f.Downsample(32, 18)
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Error("oversized result must still be computed correctly")
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Errorf("oversized entry was cached (%d entries)", s.Entries)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(4 << 20)
	frames := make([]*Frame, 8)
	for i := range frames {
		frames[i] = cacheTestFrame(64, 36, uint8(i*13))
	}
	want := make([][]uint8, len(frames))
	for i, f := range frames {
		want[i] = f.Downsample(16, 9).Pix
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := (g + iter) % len(frames)
				got := c.Downsample(frames[i], 16, 9)
				if !bytes.Equal(got.Pix, want[i]) {
					t.Errorf("goroutine %d iter %d: wrong pixels", g, iter)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Hits == 0 {
		t.Error("concurrent repeats should hit the cache")
	}
}

type countingSource struct {
	frames int
	calls  int
}

func (s *countingSource) Frame(idx int) *Frame {
	s.calls++
	f := NewFrame(8, 8, 32, 32)
	f.Pix[0] = uint8(idx)
	return f
}
func (s *countingSource) Len() int { return s.frames }
func (s *countingSource) FPS() int { return 10 }

func TestCachedSourceMemoizes(t *testing.T) {
	defer SetCacheBudget(DefaultCacheBytes)
	SetCacheBudget(1 << 20)

	src := &countingSource{frames: 5}
	cs := NewCachedSource(src)
	if cs.Len() != 5 || cs.FPS() != 10 {
		t.Fatal("CachedSource must proxy Len/FPS")
	}
	a := cs.Frame(2)
	b := cs.Frame(2)
	if src.calls != 1 {
		t.Errorf("underlying source called %d times, want 1", src.calls)
	}
	if a != b || a.Pix[0] != 2 {
		t.Error("CachedSource returned wrong or uncached frame")
	}

	// Disabled cache degrades to pass-through.
	SetCacheBudget(0)
	cs.Frame(2)
	cs.Frame(2)
	if src.calls != 3 {
		t.Errorf("disabled cache: underlying source called %d times, want 3", src.calls)
	}
}

// blockingSource renders its one frame when release closes.
type blockingSource struct {
	entered, release chan struct{}
}

func (s *blockingSource) Frame(idx int) *Frame {
	close(s.entered)
	<-s.release
	return NewFrame(8, 8, 32, 32)
}
func (s *blockingSource) Len() int { return 1 }
func (s *blockingSource) FPS() int { return 10 }

// TestCacheWaitCountsAsMiss: readers arriving while a frame is being
// rendered share that render, and each is one miss in CacheStats.
func TestCacheWaitCountsAsMiss(t *testing.T) {
	defer SetCacheBudget(DefaultCacheBytes)
	SetCacheBudget(1 << 20)
	src := &blockingSource{entered: make(chan struct{}), release: make(chan struct{})}
	cs := NewCachedSource(src)
	got := make(chan *Frame, 3)
	go func() { got <- cs.Frame(0) }()
	<-src.entered // a second render would close entered twice and panic
	go func() { got <- cs.Frame(0) }()
	go func() { got <- cs.Frame(0) }()
	for GlobalCacheStats().Misses < 3 {
		runtime.Gosched()
	}
	close(src.release)
	a, b, c := <-got, <-got, <-got
	if a != b || b != c {
		t.Error("concurrent readers of one frame did not share one render")
	}
	if s := GlobalCacheStats(); s.Hits != 0 || s.Misses != 3 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 0 hits, 3 misses, 1 entry", s)
	}
}

func TestSetCacheBudgetResetsStats(t *testing.T) {
	defer SetCacheBudget(DefaultCacheBytes)
	SetCacheBudget(1 << 20)
	f := cacheTestFrame(64, 36, 1)
	CachedDownsample(f, 16, 9)
	if GlobalCacheStats().Misses != 1 {
		t.Fatalf("stats = %+v", GlobalCacheStats())
	}
	SetCacheBudget(1 << 20)
	if s := GlobalCacheStats(); s.Misses != 0 || s.Entries != 0 {
		t.Errorf("fresh cache should have empty stats, got %+v", s)
	}
}

func TestFrameIDsUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		f := NewFrame(2, 2, 8, 8)
		if f.id == 0 || seen[f.id] {
			t.Fatalf("frame id %d reused or zero", f.id)
		}
		seen[f.id] = true
	}
}

// TestScoreKeysNeverCollide: score and detection keys differ from every
// downsample and clip-frame key, and from each other, whatever the
// identities and sizes involved.
func TestScoreKeysNeverCollide(t *testing.T) {
	collides := func(frame, model, bg uint64, owner uint64, w, h, idx int) bool {
		s, d := scoresKey(frame, model, bg), detectionsKey(frame, model)
		for _, k := range []cacheKey{downsampleKey(owner, w, h), clipFrameKey(owner, idx)} {
			if s == k || d == k {
				return true
			}
		}
		return s == d || d == scoresKey(owner, uint64(w), uint64(h))
	}
	// The identities of one object shared across kinds are the likeliest
	// collision: owner == frame, (w, h) == (model, bg), idx == model, and a
	// detector id equal to a model id with no background.
	for _, v := range []uint64{0, 1, 2, 1 << 31, 1<<63 - 1} {
		if collides(v, v, v, v, int(v), int(v), int(v)) || collides(v, v, 0, v, int(v), 0, int(v)) {
			t.Errorf("a score or detection key with identities %d equals another kind's key", v)
		}
	}
	if err := quick.Check(func(frame, model, bg, owner uint64, w, h, idx int) bool {
		return !collides(frame, model, bg, owner, w, h, idx)
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestCacheScores: a score vector is charged 8 bytes per cell plus the
// entry overhead, repeats hit, and each (frame, model, background) triple
// is its own entry, no background included.
func TestCacheScores(t *testing.T) {
	c := NewCache(1 << 20)
	f := cacheTestFrame(16, 16, 1)
	bgs := []*Frame{nil, cacheTestFrame(16, 16, 2), cacheTestFrame(16, 16, 3)}
	fills := 0
	fill := func(model uint64, bg int) func() []float64 {
		return func() []float64 {
			fills++
			return []float64{float64(model), float64(bg), 0}
		}
	}
	for round := 0; round < 2; round++ {
		for model := uint64(1); model <= 2; model++ {
			for i, bg := range bgs {
				got := c.Scores(f, model, bg, fill(model, i))
				if got[0] != float64(model) || got[1] != float64(i) {
					t.Fatalf("round %d model %d background %d: got %v", round, model, i, got)
				}
			}
		}
	}
	s := c.Stats()
	if fills != 6 || s.Entries != 6 || s.Misses != 6 || s.Hits != 6 {
		t.Errorf("%d fills, stats %+v: want 6 fills, 6 entries, 6 misses, 6 hits", fills, s)
	}
	if want := int64(6 * (3*8 + cacheEntryOverhead)); s.Bytes != want {
		t.Errorf("charged %d bytes, want %d", s.Bytes, want)
	}
}

// TestCacheScoresWithoutIdentityUncached: a model id of 0, or a frame or
// background built without NewFrame, has no identity to key on.
func TestCacheScoresWithoutIdentityUncached(t *testing.T) {
	c := NewCache(1 << 20)
	f := cacheTestFrame(16, 16, 1)
	anon := &Frame{W: 16, H: 16, NomW: 64, NomH: 64, Pix: make([]uint8, 256)}
	fills := 0
	fill := func() []float64 { fills++; return []float64{1} }
	for i := 0; i < 2; i++ {
		c.Scores(f, 0, nil, fill)
		c.Scores(anon, 1, nil, fill)
		c.Scores(f, 1, anon, fill)
	}
	if s := c.Stats(); fills != 6 || s.Entries != 0 || s.Hits+s.Misses != 0 {
		t.Errorf("%d fills, stats %+v: want 6 fills and an untouched cache", fills, s)
	}
}

// detItem stands in for a detection: 80 bytes, as detect.Detection is.
type detItem [10]float64

// TestCacheDetections: a detection slice is charged its items' size plus
// the entry overhead (an empty one only the overhead), repeats hit, and
// each (frame, detector) pair is its own entry.
func TestCacheDetections(t *testing.T) {
	c := NewCache(1 << 20)
	frames := []*Frame{cacheTestFrame(16, 16, 1), cacheTestFrame(16, 16, 2)}
	fills := 0
	fill := func(det uint64, n int) func() []detItem {
		return func() []detItem {
			fills++
			var out []detItem
			for i := 0; i < n; i++ {
				out = append(out, detItem{float64(det), float64(i)})
			}
			return out
		}
	}
	for round := 0; round < 2; round++ {
		for _, f := range frames {
			for det := uint64(1); det <= 3; det++ {
				n := int(det) - 1 // detector 1 finds nothing
				got := detections(c, f, det, fill(det, n))
				if len(got) != n || (n > 0 && got[n-1] != detItem{float64(det), float64(n - 1)}) {
					t.Fatalf("round %d detector %d: got %v", round, det, got)
				}
			}
		}
	}
	s := c.Stats()
	if fills != 6 || s.Entries != 6 || s.Misses != 6 || s.Hits != 6 {
		t.Errorf("%d fills, stats %+v: want 6 fills, 6 entries, 6 misses, 6 hits", fills, s)
	}
	if want := int64(2 * ((0+1+2)*80 + 3*cacheEntryOverhead)); s.Bytes != want {
		t.Errorf("charged %d bytes, want %d", s.Bytes, want)
	}
}

// TestCacheDetectionsWithoutIdentityUncached: a detector id of 0, or a
// frame built without NewFrame, has no identity to key on.
func TestCacheDetectionsWithoutIdentityUncached(t *testing.T) {
	c := NewCache(1 << 20)
	f := cacheTestFrame(16, 16, 1)
	anon := &Frame{W: 16, H: 16, NomW: 64, NomH: 64, Pix: make([]uint8, 256)}
	fills := 0
	fill := func() []detItem { fills++; return []detItem{{1}} }
	for i := 0; i < 2; i++ {
		detections(c, f, 0, fill)
		detections(c, anon, 1, fill)
	}
	if s := c.Stats(); fills != 4 || s.Entries != 0 || s.Hits+s.Misses != 0 {
		t.Errorf("%d fills, stats %+v: want 4 fills and an untouched cache", fills, s)
	}
}

func ExampleCacheStats_HitRate() {
	s := CacheStats{Hits: 3, Misses: 1}
	fmt.Println(s.HitRate())
	// Output: 0.75
}

// TestCacheFillCounters: each kind's fill counters count a miss once, with
// the bytes the entry is charged, and a hit not at all.
func TestCacheFillCounters(t *testing.T) {
	c := NewCache(1 << 20)
	f := cacheTestFrame(64, 36, 5)
	before := make([][2]int64, len(fillsBy))
	for k, fc := range fillsBy {
		if fc.fills != nil {
			before[k] = [2]int64{fc.fills.Value(), fc.bytes.Value()}
		}
	}
	for range 2 {
		c.Downsample(f, 32, 18)
		c.Scores(f, 7, nil, func() []float64 { return make([]float64, 5) })
		detections(c, f, 9, func() []detItem { return make([]detItem, 3) })
	}
	for k, want := range map[keyKind]int64{
		kindDownsample: 32*18 + cacheEntryOverhead,
		kindScores:     8*5 + cacheEntryOverhead,
		kindDetections: 3*80 + cacheEntryOverhead,
		kindClipFrame:  0,
	} {
		fills := fillsBy[k].fills.Value() - before[k][0]
		charged := fillsBy[k].bytes.Value() - before[k][1]
		if wantFills := min(want, 1); fills != wantFills || charged != want {
			t.Errorf("kind %d: %d fills of %d bytes, want %d of %d", k, fills, charged, wantFills, want)
		}
	}
}
