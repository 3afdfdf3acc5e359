package detect

import (
	"math/bits"
	"sync"

	"otif/internal/obs"
)

// This file implements pooled per-clip allocation for the detector: an
// arena for the detection slices the hot path returns every processed
// frame, and a size-class pool for the analysis scratch (whose label plane
// is sized by the clip's analysis plane). Clip execution creates one
// Detector per clip; without pooling every clip re-grows the same label
// plane and foreground list and every frame heap-allocates its detection
// slice. Pool traffic is observable through the detect.pool.* counters;
// pooling never changes results.

// Pool effectiveness counters.
var (
	metArenaHit    = obs.Default.Counter("detect.pool.arena.hit")
	metArenaMiss   = obs.Default.Counter("detect.pool.arena.miss")
	metScratchHit  = obs.Default.Counter("detect.pool.scratch.hit")
	metScratchMiss = obs.Default.Counter("detect.pool.scratch.miss")
)

// arenaSlabDets is how many detections one arena slab holds. Detection
// counts per frame are small (tens), so one slab serves hundreds of
// frames.
const arenaSlabDets = 512

// Arena allocates detection slices from reusable slabs. It serves the
// pooled clip-execution path: every Detect/DetectWindows result for a clip
// is carved from the clip's arena and stays valid until Release, after
// which the slabs are handed to the next clip through the arena pool. An
// Arena is owned by one goroutine. A nil *Arena is valid and degrades to
// plain heap copies, preserving the unpooled semantics.
type Arena struct {
	slabs [][]Detection
	cur   int // index of the slab currently being carved
}

// arenaPool recycles Arenas (and their slabs) across clips. No New
// function: a nil Get is how misses are counted.
var arenaPool sync.Pool

// GetArena returns an empty arena, reusing pooled slabs when available.
func GetArena() *Arena {
	if v := arenaPool.Get(); v != nil {
		metArenaHit.Inc()
		return v.(*Arena)
	}
	metArenaMiss.Inc()
	return &Arena{}
}

// Release invalidates every slice handed out by the arena and returns its
// slabs to the pool. The caller must not retain any detection slice
// obtained from the arena past this call. Release on a nil arena is a
// no-op.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	for i := range a.slabs {
		a.slabs[i] = a.slabs[i][:0]
	}
	a.cur = 0
	arenaPool.Put(a)
}

// take copies src into arena-owned storage and returns the copy, capped so
// appends by the caller can never clobber a neighboring allocation. An
// empty src returns nil (matching the detector's "no detections" result);
// a nil arena returns a plain heap copy.
func (a *Arena) take(src []Detection) []Detection {
	if len(src) == 0 {
		return nil
	}
	if a == nil {
		out := make([]Detection, len(src))
		copy(out, src)
		return out
	}
	n := len(src)
	for {
		if a.cur >= len(a.slabs) {
			size := arenaSlabDets
			if n > size {
				size = n
			}
			a.slabs = append(a.slabs, make([]Detection, 0, size))
		}
		slab := a.slabs[a.cur]
		if len(slab)+n <= cap(slab) {
			start := len(slab)
			slab = append(slab, src...)
			a.slabs[a.cur] = slab
			return slab[start:len(slab):len(slab)]
		}
		a.cur++
	}
}

// scratchClass buckets an analysis-plane pixel count into a power-of-two
// size class, so clips of the same geometry (and near-geometries from the
// tuner's resolution sweep) share pooled scratch of the right magnitude.
func scratchClass(pixels int) int {
	if pixels < 1 {
		pixels = 1
	}
	return bits.Len(uint(pixels - 1)) // ceil(log2(pixels))
}

// scratchPools maps a size class to its pool of *analyzeScratch. Classes
// are few (one per geometry magnitude), so the map is tiny and read-mostly.
var (
	scratchPoolsMu sync.Mutex
	scratchPools   = map[int]*sync.Pool{}
)

func classPool(class int) *sync.Pool {
	scratchPoolsMu.Lock()
	defer scratchPoolsMu.Unlock()
	p, ok := scratchPools[class]
	if !ok {
		p = &sync.Pool{}
		scratchPools[class] = p
	}
	return p
}

// getAnalyzeScratch returns analysis scratch suitable for a plane of the
// given pixel count, reusing pooled scratch of the same size class when
// available. A pooled label plane comes back all zero (analyzeScratch's
// invariant); mark grows it when a plane is larger.
func getAnalyzeScratch(pixels int) *analyzeScratch {
	if v := classPool(scratchClass(pixels)).Get(); v != nil {
		metScratchHit.Inc()
		return v.(*analyzeScratch)
	}
	metScratchMiss.Inc()
	return &analyzeScratch{}
}

// putAnalyzeScratch returns scratch to the pool of the class its buffers
// have grown to serve.
func putAnalyzeScratch(s *analyzeScratch) {
	if s == nil {
		return
	}
	s.dets = s.dets[:0]
	s.win = s.win[:0]
	classPool(scratchClass(cap(s.labels))).Put(s)
}
