package track

import (
	"sync"

	"otif/internal/obs"
)

// This file implements pooled per-clip allocation for the trackers. Clip
// execution constructs one tracker per clip, so without pooling every clip
// re-grows the same working storage: the cost-matrix and Hungarian buffers,
// the feature scratch, and one small hidden vector per started track. A
// sync.Pool of matchScratch instances (each carrying a slab arena for
// hidden vectors) lets a finished clip hand its fully grown buffers to the
// next clip on the same worker. Pool traffic is observable through the
// track.pool.* counters; pooling is purely a memory optimization and never
// changes results.

// Pool effectiveness counters: a hit means a tracker reused a previously
// grown scratch, a miss means a fresh one was built.
var (
	metScratchHit  = obs.Default.Counter("track.pool.scratch.hit")
	metScratchMiss = obs.Default.Counter("track.pool.scratch.miss")
)

// scratchPool recycles matchScratch instances across clips. No New
// function: a nil Get is how misses are counted.
var scratchPool sync.Pool

// getScratch returns a ready matchScratch, reusing a pooled one when
// available. Buffer contents are unspecified; every user sizes its buffers
// before reading them.
func getScratch() *matchScratch {
	if v := scratchPool.Get(); v != nil {
		metScratchHit.Inc()
		return v.(*matchScratch)
	}
	metScratchMiss.Inc()
	return &matchScratch{}
}

// putScratch resets a scratch's hidden-vector arena and returns it to the
// pool. The caller must not use s (or any hidden vector drawn from its
// arena) afterwards.
func putScratch(s *matchScratch) {
	if s == nil {
		return
	}
	s.arena.release()
	scratchPool.Put(s)
}

// vecSlabFloats is the slab size of the hidden-vector arena. One slab holds
// 256 hidden vectors at the default hidden size of 16.
const vecSlabFloats = 4096

// vecArena hands out small zeroed vector chunks carved from reusable
// slabs. Chunks stay valid until release; release keeps the slabs, so an
// arena that cycles through the scratch pool reaches a steady state where
// starting a track allocates nothing. Oversized requests fall back to the
// heap.
type vecArena struct {
	slabs [][]float64
	cur   int // index of the slab currently being carved
	off   int // carve offset within that slab
}

// alloc returns a zeroed vector of length n from the arena.
func (a *vecArena) alloc(n int) []float64 {
	if n > vecSlabFloats {
		return make([]float64, n)
	}
	for {
		if a.cur >= len(a.slabs) {
			a.slabs = append(a.slabs, make([]float64, vecSlabFloats))
		}
		s := a.slabs[a.cur]
		if a.off+n <= len(s) {
			v := s[a.off : a.off+n : a.off+n]
			a.off += n
			clear(v)
			return v
		}
		a.cur++
		a.off = 0
	}
}

// release invalidates every vector handed out and makes the slabs
// available for reuse.
func (a *vecArena) release() {
	a.cur, a.off = 0, 0
}
