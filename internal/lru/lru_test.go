package lru

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// put fills key with a value of the given size, failing if it was held.
func put(t *testing.T, c *Cache[int, int], key int, size int64) {
	t.Helper()
	ran := false
	c.Get(key, func() (int, int64) { ran = true; return key * 10, size })
	if !ran {
		t.Fatalf("key %d was already held", key)
	}
}

// held reports whether key is answered from memory, without counting as a
// use if it is not.
func held(c *Cache[int, int], key int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	return ok && !e.filling
}

// TestGetMemoizes pins the accounting: one fill per key, later calls hit,
// and Hits + Fills + Waits is the number of calls.
func TestGetMemoizes(t *testing.T) {
	c := New[string, int](1 << 10)
	fills := 0
	fill := func() (int, int64) { fills++; return 42, 8 }
	for i := 0; i < 3; i++ {
		if v := c.Get("k", fill); v != 42 {
			t.Fatalf("Get %d = %d, want 42", i, v)
		}
	}
	if fills != 1 {
		t.Fatalf("fill ran %d times, want 1", fills)
	}
	want := Stats{Hits: 2, Fills: 1, Bytes: 8, Entries: 1}
	if s := c.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

// TestLRUOrder: with room for three entries, touching the oldest makes the
// second oldest the one a fourth insert evicts.
func TestLRUOrder(t *testing.T) {
	c := New[int, int](300)
	for k := 0; k < 3; k++ {
		put(t, c, k, 100)
	}
	c.Get(0, func() (int, int64) { t.Fatal("key 0 should be held"); return 0, 0 })
	put(t, c, 3, 100)
	if s := c.Stats(); s.Evictions != 1 || s.Bytes != 300 || s.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 eviction, 300 bytes, 3 entries", s)
	}
	if held(c, 1) {
		t.Error("least recently used entry survived")
	}
	for _, k := range []int{0, 2, 3} {
		if !held(c, k) {
			t.Errorf("recently used key %d was evicted", k)
		}
	}
	// The list is in use order, both ways.
	var fwd, back []int
	for e := c.head; e != nil; e = e.next {
		fwd = append(fwd, e.key)
	}
	for e := c.tail; e != nil; e = e.prev {
		back = append(back, e.key)
	}
	if len(fwd) != 3 || fwd[0] != 3 || fwd[1] != 0 || fwd[2] != 2 ||
		len(back) != 3 || back[0] != 2 || back[1] != 0 || back[2] != 3 {
		t.Errorf("list order = %v forwards, %v backwards; want [3 0 2] and [2 0 3]", fwd, back)
	}
}

// TestByteBudget: however many values pass through, what is held stays
// within the budget, and one large value can evict several small ones.
func TestByteBudget(t *testing.T) {
	const budget = 1000
	c := New[int, int](budget)
	for k := 0; k < 200; k++ {
		put(t, c, k, int64(50+k%7*30))
		if s := c.Stats(); s.Bytes > budget {
			t.Fatalf("after key %d the cache holds %d bytes, budget %d", k, s.Bytes, budget)
		}
	}
	before := c.Stats()
	put(t, c, 1000, 900)
	after := c.Stats()
	if after.Bytes > budget || after.Evictions-before.Evictions < 2 {
		t.Errorf("a 900-byte value left %+v after %+v", after, before)
	}
	if !held(c, 1000) {
		t.Error("the value just inserted was evicted")
	}
}

// TestOversizedValueUncached: a value charged more than the whole budget is
// returned, not kept, and evicts nothing.
func TestOversizedValueUncached(t *testing.T) {
	c := New[int, int](100)
	put(t, c, 1, 60)
	if v := c.Get(2, func() (int, int64) { return 7, 101 }); v != 7 {
		t.Fatalf("oversized Get = %d, want 7", v)
	}
	if s := c.Stats(); s.Entries != 1 || s.Bytes != 60 || s.Evictions != 0 {
		t.Errorf("stats = %+v, want the one 60-byte entry and no eviction", s)
	}
	put(t, c, 2, 40) // asked again, it is filled again
}

// TestNilCacheComputes: a nil cache runs fill every time.
func TestNilCacheComputes(t *testing.T) {
	var c *Cache[string, int]
	n := 0
	for i := 1; i <= 3; i++ {
		if v := c.Get("k", func() (int, int64) { n++; return n, 8 }); v != i {
			t.Fatalf("nil cache memoized: call %d returned %d", i, v)
		}
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("nil cache stats = %+v", s)
	}
}

// TestWaitersShareOneFill is deterministic: the first caller blocks inside
// fill, the others arrive while it runs, and it is released only once
// Stats shows every one of them committed to waiting (Waits is counted
// before a waiter blocks).
func TestWaitersShareOneFill(t *testing.T) {
	const waiters = 8
	c := New[string, int](1 << 10)
	entered, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Get("hot", func() (int, int64) {
			close(entered)
			<-release
			return 7, 8
		})
	}()
	<-entered
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := c.Get("hot", func() (int, int64) {
				t.Error("a waiter ran fill")
				return -1, 8
			})
			if v != 7 {
				t.Errorf("waiter got %d, want 7", v)
			}
		}()
	}
	for c.Stats().Waits < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	want := Stats{Fills: 1, Waits: waiters, Bytes: 8, Entries: 1}
	if s := c.Stats(); s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
}

// TestPanickedFillNotMemoized: the panic reaches the caller that ran fill,
// a caller already waiting is released, nothing is kept, and the next Get
// runs fill again.
func TestPanickedFillNotMemoized(t *testing.T) {
	c := New[int, string](1 << 10)
	entered := make(chan struct{})
	waiterDone := make(chan string)
	go func() {
		<-entered
		waiterDone <- c.Get(1, func() (string, int64) { return "waiter ran fill", 8 })
	}()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the fill's panic", r)
			}
		}()
		c.Get(1, func() (string, int64) {
			close(entered)
			for c.Stats().Waits < 1 {
				runtime.Gosched()
			}
			panic("boom")
		})
	}()
	if v := <-waiterDone; v != "" {
		t.Errorf("waiter of a panicked fill got %q, want the zero value", v)
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("stats after a panicked fill = %+v, want nothing held", s)
	}
	if v := c.Get(1, func() (string, int64) { return "ok", 8 }); v != "ok" {
		t.Fatalf("Get after a panicked fill = %q, want ok", v)
	}
}

// TestOneFillPerKeyUnderHammer: eight goroutines over a small key space
// that fits the budget; under -race this is the proof that Get is safe for
// concurrent fill and read. Each key fills once, every caller sees its
// key's value, and every call is counted once.
func TestOneFillPerKeyUnderHammer(t *testing.T) {
	const goroutines, rounds, keys = 8, 200, 6
	c := New[int, []int](1 << 20)
	var fills [keys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g*7 + i*3) % keys
				v := c.Get(k, func() ([]int, int64) {
					fills[k].Add(1)
					return []int{k, k * k}, 16
				})
				if len(v) != 2 || v[0] != k || v[1] != k*k {
					t.Errorf("Get(%d) = %v", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for k := range fills {
		if n := fills[k].Load(); n != 1 {
			t.Errorf("key %d filled %d times, want 1", k, n)
		}
	}
	s := c.Stats()
	if s.Fills != keys || s.Entries != keys || s.Hits+s.Fills+s.Waits != goroutines*rounds {
		t.Errorf("stats = %+v, want %d fills and %d calls in all", s, keys, goroutines*rounds)
	}
}

// TestHammerUnderEviction: the same hammer with room for two entries, so
// fills, hits, waits and evictions interleave. Values stay right and the
// budget holds.
func TestHammerUnderEviction(t *testing.T) {
	const goroutines, rounds, keys = 8, 300, 9
	c := New[int, int](32)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i*5) % keys
				if v := c.Get(k, func() (int, int64) { return k * 10, 16 }); v != k*10 {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Bytes > 32 || s.Entries > 2 || s.Evictions == 0 || s.Hits+s.Fills+s.Waits != goroutines*rounds {
		t.Errorf("stats = %+v, want at most 2 entries in 32 bytes, evictions, and %d calls", s, goroutines*rounds)
	}
}

// TestLookupCountsOnlyValues: Lookup mixed with Get under eviction, from
// eight goroutines, as a scatter probes and then fills only its misses. A
// Lookup that finds a value counts one hit and one that finds none counts
// nothing, so Hits + Fills + Waits equals the calls that returned a value;
// a Lookup never waits for a fill in flight nor reports one as found.
func TestLookupCountsOnlyValues(t *testing.T) {
	const goroutines, rounds, keys = 8, 300, 9
	c := New[int, int](48)
	var returned atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i*5) % keys
				v, ok := c.Lookup(k)
				if !ok && i%2 == 0 {
					v, ok = c.Get(k, func() (int, int64) { return k * 10, 16 }), true
				}
				if ok {
					returned.Add(1)
					if v != k*10 {
						t.Errorf("key %d = %d", k, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if n := returned.Load(); s.Hits+s.Fills+s.Waits != n || n == 0 || n == goroutines*rounds || s.Bytes > 48 {
		t.Errorf("stats = %+v for %d values returned of %d calls; want Hits + Fills + Waits equal to them, within 48 bytes", s, n, goroutines*rounds)
	}

	// A key being filled is not found, and the probe counts nothing.
	d := New[string, int](1 << 10)
	started, release := make(chan struct{}), make(chan struct{})
	go d.Get("k", func() (int, int64) { close(started); <-release; return 1, 8 })
	<-started
	if _, ok := d.Lookup("k"); ok {
		t.Error("Lookup found a key still being filled")
	}
	close(release)
	if s := d.Stats(); s.Hits != 0 || s.Waits != 0 {
		t.Errorf("a probe of a key in flight counted %+v", s)
	}
	var nilCache *Cache[string, int]
	if _, ok := nilCache.Lookup("k"); ok {
		t.Error("a nil cache found a key")
	}
}
