package detect

// arenaSlabDets is how many detections one arena slab holds. Detection
// counts per frame are small (tens), so one slab serves hundreds of
// frames.
const arenaSlabDets = 512

// Arena allocates detection slices from reusable slabs. Every
// Detect/DetectWindows result of a detector with an Arena is carved from
// it and stays valid until Reset, which keeps the slabs for the next clip
// (core lends one arena per clip from its clip working set). An Arena is
// owned by one goroutine. A nil *Arena is valid and degrades to plain heap
// copies.
type Arena struct {
	slabs [][]Detection
	cur   int // index of the slab currently being carved
}

// GetArena returns a fresh arena. It is named by benchmark/replay.go;
// delete with the next change to the benchmark.
func GetArena() *Arena { return &Arena{} }

// Release is Reset. It is named by benchmark/replay.go; delete with the
// next change to the benchmark.
func (a *Arena) Release() { a.Reset() }

// Reset invalidates every slice handed out by the arena and keeps its
// slabs for reuse. The caller must not retain any detection slice obtained
// from the arena past this call. Reset on a nil arena is a no-op.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for i := range a.slabs {
		a.slabs[i] = a.slabs[i][:0]
	}
	a.cur = 0
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
