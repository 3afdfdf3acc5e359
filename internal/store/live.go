package store

import (
	"sync"
	"sync/atomic"

	"otif/internal/query"
)

// DefaultSealClips is the open-segment size at which a Live store seals:
// once the tail segment reaches this many clips it becomes an immutable
// sealed segment (cacheable, exportable) and a fresh open segment starts.
const DefaultSealClips = 8

// Live is the mutable front of the indexed track store for streaming
// ingest, re-expressed over the segment model: an append-only sequence of
// sealed segments plus one open tail segment, published as immutable
// *Sharded snapshots. Each Append builds one clip's flat indexes (the same
// build New runs per clip) outside any lock, then publishes a new Sharded
// whose sealed segments are shared with the previous snapshot and whose
// open segment is a fresh copy-on-append Segment — publication is one atomic
// pointer swap, so readers always see a fully consistent store: either the
// snapshot before a clip landed or the one after, never a torn index.
//
// When the open segment reaches sealEvery clips it is sealed in place: it
// keeps its id (assigned when it opened, stable "seg-%05d" numbering) and
// flips immutable, making it eligible for the shared result cache and for
// export over the segment wire format. Query answers are bit-identical to
// one segment over the same clip sequence at every step (pinned by
// the differential tests), so ingest publication semantics are unchanged.
//
// Appends are serialized by a mutex; any number of concurrent readers
// proceed lock-free through Snapshot.
type Live struct {
	mu        sync.Mutex
	dataset   string
	ctx       query.Context
	sealEvery int
	cache     *Cache

	sealed    []*Segment  // immutable prefix, shared across snapshots
	openClips []clipIndex // open tail segment's clips, copied on append

	cur atomic.Pointer[Sharded]
}

// NewLive creates a live store with zero clips published, using the given
// clip geometry for every future clip, the default seal threshold, and a
// fresh result cache for sealed segments.
func NewLive(ctx query.Context) *Live {
	return NewLiveOptions("live", ctx, DefaultSealClips, NewCache())
}

// NewLiveOptions is NewLive with explicit dataset name, seal threshold
// (<= 0 means never seal: one open segment forever, the pre-segment
// behavior), and result cache (nil disables caching).
func NewLiveOptions(dataset string, ctx query.Context, sealEvery int, cache *Cache) *Live {
	l := &Live{dataset: dataset, ctx: ctx, sealEvery: sealEvery, cache: cache}
	l.cur.Store(l.assemble())
	return l
}

// assemble publishes the current sealed+open state as a Sharded. Caller
// holds l.mu (or is the constructor).
func (l *Live) assemble() *Sharded {
	start := 0
	for _, sg := range l.sealed {
		start += sg.Clips()
	}
	segs := l.sealed
	if len(l.openClips) > 0 {
		segs = make([]*Segment, len(l.sealed)+1)
		copy(segs, l.sealed)
		segs[len(l.sealed)] = &Segment{id: SegmentID(len(l.sealed)), start: start, clips: l.openClips, ctx: l.ctx}
	}
	sh, err := NewSharded(l.dataset, l.ctx, segs, l.cache)
	if err != nil {
		panic("store: live segments not contiguous: " + err.Error())
	}
	return sh
}

// Snapshot returns the current published shard set. The returned Sharded
// is immutable and safe for concurrent queries; it never changes as
// further clips append. Live implements Provider.
func (l *Live) Snapshot() Querier { return l.cur.Load() }

// Clips returns the number of clips in the current snapshot.
func (l *Live) Clips() int { return l.cur.Load().Clips() }

// Append indexes one extracted clip's tracks and atomically publishes a
// new snapshot containing it. tracks is retained (not copied) and must
// not be mutated afterwards, exactly like New's contract. It returns the
// clip's index in the new snapshot.
func (l *Live) Append(tracks []*query.Track) int {
	// The index build is the expensive part; run it outside the lock so
	// concurrent appenders only serialize on the seal check and swap.
	ci := buildClipIndex(tracks, l.ctx.FPS)

	l.mu.Lock()
	defer l.mu.Unlock()
	// Copy-on-append: old snapshots keep their open segment's clip slice.
	open := make([]clipIndex, len(l.openClips)+1)
	copy(open, l.openClips)
	open[len(l.openClips)] = ci

	if l.sealEvery > 0 && len(open) >= l.sealEvery {
		start := 0
		for _, sg := range l.sealed {
			start += sg.Clips()
		}
		seg := &Segment{id: SegmentID(len(l.sealed)), start: start, sealed: true, clips: open, ctx: l.ctx}
		sealed := make([]*Segment, len(l.sealed)+1)
		copy(sealed, l.sealed)
		sealed[len(l.sealed)] = seg
		l.sealed = sealed
		l.openClips = nil
	} else {
		l.openClips = open
	}
	sh := l.assemble()
	l.cur.Store(sh)
	return sh.Clips() - 1
}

var _ Provider = (*Live)(nil)
