// Package lru is the one bounded cache in the tree: a byte budget, least
// recently used eviction and fills coalesced per key, under one mutex. The
// frame cache (internal/video), the per-segment result cache
// (internal/store) and the benchmark suite's memoization (internal/bench)
// are thin wrappers that choose the key, the value and what a value is
// charged.
//
// One mutex, not shards: a Get holds it for a map lookup and a list splice
// and fills run outside it. It is not free: a mutex profile of the tuner
// re-reading a cached validation set (a reader's prefetcher and its
// consumer ask for neighbouring keys at the same moment) shows about 1.5%
// of CPU time waiting for it against 0.05% with the sixteen shards the
// frame cache had, and the benchmark's tune-warm reads 2-3% slower, a tenth
// of its bound (DESIGN.md §8). That is what the shards bought, and it did
// not pay for a second list implementation.
package lru

import "sync"

// Stats is one consistent snapshot of a cache's counters. Every Get, and
// every Lookup that finds a value, counts exactly once: Hits + Fills + Waits
// is the number of values returned. A Lookup that finds none counts
// nothing.
type Stats struct {
	Hits      int64 // answered from memory
	Fills     int64 // ran fill
	Waits     int64 // blocked on another caller's fill and shared its value
	Evictions int64
	Bytes     int64 // charged by the entries held
	Entries   int64 // held or being filled
}

// Cache maps keys to values that are deterministic functions of their key.
// Values are shared between callers and must be treated as read-only. A
// nil *Cache is a valid disabled cache: Get just runs fill.
type Cache[K comparable, V any] struct {
	budget int64

	mu         sync.Mutex
	m          map[K]*entry[K, V]
	head, tail *entry[K, V] // most and least recently used of the filled entries
	stats      Stats
}

type entry[K comparable, V any] struct {
	key        K
	v          V
	size       int64
	filling    bool
	done       chan struct{} // made by the first waiter, closed when the fill ends
	prev, next *entry[K, V]
}

// New returns an empty cache that holds at most budget bytes, as charged by
// the fills.
func New[K comparable, V any](budget int64) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, m: make(map[K]*entry[K, V])}
}

// Get returns the value for key. The first call runs fill, which returns
// the value and the bytes to charge for it; calls arriving while it runs
// wait and share its value; later calls are served from memory until the
// entry is evicted. A value charged more than the whole budget is returned
// but not kept. If fill panics the panic reaches its caller, nothing is
// kept, and callers already waiting receive the zero value.
func (c *Cache[K, V]) Get(key K, fill func() (V, int64)) V {
	if c == nil {
		v, _ := fill()
		return v
	}
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		if !e.filling {
			v := c.hit(e)
			c.mu.Unlock()
			return v
		}
		c.stats.Waits++
		if e.done == nil {
			e.done = make(chan struct{})
		}
		done := e.done
		c.mu.Unlock()
		<-done
		return e.v
	}
	e := &entry[K, V]{key: key, filling: true}
	c.m[key] = e
	c.stats.Fills++
	c.mu.Unlock()

	filled := false
	defer func() {
		c.mu.Lock()
		e.filling = false
		if filled && e.size <= c.budget {
			c.pushFront(e)
			c.stats.Bytes += e.size
			// e alone fits, so the tail is never e while over budget.
			for c.stats.Bytes > c.budget {
				ev := c.tail
				c.unlink(ev)
				delete(c.m, ev.key)
				c.stats.Bytes -= ev.size
				c.stats.Evictions++
			}
		} else {
			delete(c.m, key)
		}
		done := e.done
		c.mu.Unlock()
		if done != nil {
			close(done)
		}
	}()
	e.v, e.size = fill()
	filled = true
	return e.v
}

// Lookup returns the value held for key and true, counted as a hit and
// made the most recently used, or the zero value and false, counted
// nowhere, when the key is not held or is still being filled. It never
// waits and never fills: a caller that finds nothing goes on to Get, which
// shares a fill in flight.
func (c *Cache[K, V]) Lookup(key K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok && !e.filling {
		return c.hit(e), true
	}
	return zero, false
}

// hit counts a hit on a filled entry and makes it the most recently used.
// c.mu is held.
func (c *Cache[K, V]) hit(e *entry[K, V]) V {
	c.stats.Hits++
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.v
}

// Stats returns the counters, read together under the lock.
func (c *Cache[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = int64(len(c.m))
	return s
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	} else {
		c.tail = e
	}
	c.head = e
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
}
