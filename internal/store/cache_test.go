package store

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"otif/internal/geom"
	"otif/internal/lru"
	"otif/internal/query"
)

// TestCacheHammer fills one cache from many goroutines hammering a small
// key space; under -race this proves Get is safe for concurrent fill and
// read. Every call for a key must observe the same shared value, and the
// counters must account for every call exactly once: fills equals the key
// count (each key computed once — that is the singleflight guarantee), and
// hits + dedup cover all remaining calls.
func TestCacheHammer(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 200
		keys       = 6
	)
	c := NewCache()
	computed := make([]int, keys) // writes guarded by the singleflight: one fill per key
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				k := r.Intn(keys)
				seg, q := SegmentID(k/2), []string{"count|car", "avgvisible|bus", "dwell|"}[k%3]
				v := c.Get("test", seg, q, func() any {
					computed[k]++
					return []int{k, k * k}
				}).([]int)
				if want := []int{k, k * k}; !reflect.DeepEqual(v, want) {
					t.Errorf("Get(%s,%s) = %v, want %v", seg, q, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for k, n := range computed {
		if n != 1 {
			t.Errorf("key %d computed %d times, want exactly 1", k, n)
		}
	}
	st := c.Stats()
	if st.Fills != keys {
		t.Errorf("fills = %d, want %d", st.Fills, keys)
	}
	if total := st.Fills + st.Hits + st.Dedup; total != goroutines*rounds {
		t.Errorf("fills+hits+dedup = %d, want %d (every Get accounted once)", total, goroutines*rounds)
	}
	if c.Len() != keys {
		t.Errorf("Len = %d, want %d", c.Len(), keys)
	}
}

// TestCacheDedupCounter deterministically drives the coalescing path:
// waiters blocked behind an in-flight fill must be counted as dedup, not as
// fills or hits. A waiter is counted before it blocks, so the fill is
// released once Stats shows all of them.
func TestCacheDedupCounter(t *testing.T) {
	const waiters = 4
	c := NewCache()
	release := make(chan struct{})

	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Get("test", "seg-00000", "count|car", func() any {
			close(started)
			<-release
			return []int{42}
		})
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := c.Get("test", "seg-00000", "count|car", func() any { return nil }).([]int); v[0] != 42 {
				t.Errorf("waiter got %v, want [42]", v)
			}
		}()
	}
	for c.Stats().Dedup < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	st := c.Stats()
	if st.Fills != 1 || st.Dedup != waiters || st.Hits != 0 {
		t.Errorf("stats = %+v, want fills=1 dedup=%d hits=0", st, waiters)
	}
	if v := c.Get("test", "seg-00000", "count|car", func() any { return nil }).([]int); v[0] != 42 {
		t.Errorf("post-fill Get = %v, want [42]", v)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("hits after memoized Get = %d, want 1", st.Hits)
	}
}

// TestCacheNil pins that a nil cache degrades to direct execution.
func TestCacheNil(t *testing.T) {
	var c *Cache
	n := 0
	for i := 0; i < 3; i++ {
		if v := c.Get("d", "s", "q", func() any { n++; return n }).(int); v != i+1 {
			t.Fatalf("nil cache memoized: got %d on call %d", v, i+1)
		}
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
	if c.Len() != 0 {
		t.Errorf("nil cache Len = %d", c.Len())
	}
}

// panicOncePredicate is CountPredicate{N: 1} that panics on its first Eval.
type panicOncePredicate struct{ armed *atomic.Bool }

func (p panicOncePredicate) Eval(boxes []geom.Rect) ([]geom.Rect, bool) {
	if p.armed.CompareAndSwap(true, false) {
		panic("predicate bug")
	}
	return query.CountPredicate{N: 1}.Eval(boxes)
}

// TestCachePanickedFillNotMemoized: a query whose fill panics reaches its
// caller as a panic, and the identical query asked again computes the
// answer. The dead fill must not stay in the cache as a nil result, which
// scatter's type assertion would panic on for ever after.
func TestCachePanickedFillNotMemoized(t *testing.T) {
	perClip, mono, ctx, _ := shardedFixture(3)
	sh, err := NewSharded("test", ctx, SplitSegments(perClip, ctx, 3), NewCache())
	if err != nil {
		t.Fatal(err)
	}
	pred := panicOncePredicate{armed: new(atomic.Bool)}
	pred.armed.Store(true)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panicking predicate did not reach the caller")
			}
		}()
		sh.LimitQuery("", pred, 3, 5)
	}()
	want := mono.LimitQuery("", query.CountPredicate{N: 1}, 3, 5)
	if got := sh.LimitQuery("", pred, 3, 5); !reflect.DeepEqual(got, want) {
		t.Errorf("query after a panicked fill diverged from the monolithic store\n got: %v\nwant: %v", got, want)
	}
}

// TestResultCacheBounded: an exploratory session, five hundred dwell
// regions that never repeat, leaves the result cache within its budget,
// while one region asked between them keeps being answered from memory and
// every answer equals the uncached store's.
func TestResultCacheBounded(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(5)
	segs := SplitSegments(perClip, ctx, 3)
	cached, err := NewSharded("test", ctx, segs, NewCache())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewSharded("test", ctx, segs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A cache that holds a few dozen dwell answers, so 500 regions turn it
	// over many times; the production budget would take a far longer test.
	c := cached.Cache()
	c.lru = lru.New[cacheKey, any](64 << 10)

	r := rand.New(rand.NewSource(11))
	hot := randRegion(r, ctx)
	wantHot := plain.DwellTime("car", hot)
	cached.DwellTime("car", hot)
	for i := 0; i < 500; i++ {
		region := randRegion(r, ctx)
		if got, want := cached.DwellTime("car", region), plain.DwellTime("car", region); !reflect.DeepEqual(got, want) {
			t.Fatalf("region %d: cached answer differs from the uncached store", i)
		}
		hits := c.Stats().Hits
		if got := cached.DwellTime("car", hot); !reflect.DeepEqual(got, wantHot) {
			t.Fatalf("region %d: the repeated region's answer changed", i)
		}
		if got := c.Stats().Hits - hits; got != int64(len(segs)) {
			t.Fatalf("region %d: the repeated region hit %d of %d segments", i, got, len(segs))
		}
		if s := c.lru.Stats(); s.Bytes > 64<<10 {
			t.Fatalf("region %d: cache holds %d bytes, budget %d", i, s.Bytes, 64<<10)
		}
	}
	if s := c.lru.Stats(); s.Evictions == 0 || c.Len() >= 500*len(segs) {
		t.Errorf("500 distinct regions evicted nothing: %+v", s)
	}
}

// TestResultCacheChargesKeys: a cache key holds the request's category
// verbatim, so four hundred average-visible queries over distinct
// kilobyte-long categories are four hundred kilobyte-long keys per segment
// beside 40-byte answers (counts, which have the same shape, are not
// cached).
// The cache must charge what it holds for them and evict; charging the
// answers alone it would report 64,000 bytes for 1.6 MB and never evict.
func TestResultCacheChargesKeys(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(8)
	sh, err := NewSharded("test", ctx, SplitSegments(perClip, ctx, 2), NewCache())
	if err != nil {
		t.Fatal(err)
	}
	const (
		budget   = 64 << 10 // as TestResultCacheBounded: the production budget at test scale
		catBytes = 1 << 10
	)
	c := sh.Cache()
	c.lru = lru.New[cacheKey, any](budget)
	for i := 0; i < 400; i++ {
		sh.AvgVisible(fmt.Sprintf("%0*d", catBytes, i))
		if s := c.lru.Stats(); s.Bytes > budget || s.Bytes < s.Entries*catBytes {
			t.Fatalf("call %d: %d entries, each keyed by %d bytes of category, are charged %d bytes (budget %d)",
				i, s.Entries, catBytes, s.Bytes, budget)
		}
	}
	if s := c.lru.Stats(); s.Entries > budget/catBytes || s.Evictions == 0 {
		t.Errorf("400 distinct %d-byte categories over %d segments left %+v in a %d-byte cache",
			catBytes, len(sh.Segments()), s, budget)
	}
}

// TestResultBytesCoversEveryKind runs every kind the store answers through
// resultBytes, so a kind added to the table without a case there fails here
// and not as a panic in a serving process. Point lookups are not cached.
// The derived entries go through it too: a pair-distance column is charged
// at least 8 bytes a distance, and a refused column nothing.
func TestResultBytesCoversEveryKind(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(3)
	s := New(perClip, ctx)
	p := queryParams{
		cat: "car", pred: query.CountPredicate{N: 1}, limit: 3, minSep: 5,
		catB: "bus", nA: 1, nB: 1, dist: 80, region: randRegion(rand.New(rand.NewSource(1)), ctx),
		movements: []query.Movement{{Name: "a", Path: geom.Path{{X: 0, Y: 0}, {X: 640, Y: 360}}}},
		threshold: 100,
	}
	for _, k := range queryKinds {
		if k.name == "visibleboxes" {
			continue
		}
		if n := resultBytes(k.indexed(s, p)); n < 24 {
			t.Errorf("%s: resultBytes = %d, want at least a slice header", k.name, n)
		}
	}
	col := s.buildPairColumn("car", math.MaxInt64)
	if n, want := resultBytes(col), 24+8*int64(len(col.dists)+len(col.off)); len(col.dists) == 0 || n < want {
		t.Errorf("a column of %d distances is charged %d bytes, want at least %d", len(col.dists), n, want)
	}
	if n := resultBytes((*pairColumn)(nil)); n != 0 {
		t.Errorf("a refused column is charged %d bytes, want 0", n)
	}
}
