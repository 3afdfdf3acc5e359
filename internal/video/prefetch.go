package video

import (
	"context"

	"otif/internal/obs"
)

// This file implements the decode-ahead pipeline: a Reader can run its
// frame decoding in producer goroutines that stay a bounded number of
// frames ahead of the consumer, overlapping decode (frame synthesis or
// codec work) with downstream detection and tracking. The producers
// together walk exactly the sampled index sequence the synchronous path
// would, and all accounting — decode cost, the video.frames_decoded
// counter — happens on the consumer side in consumption order, so results
// and metrics are bit-identical with prefetching on, off, on any number of
// producers, or cancelled mid-clip.

// prefetchDepth is how many decoded frames each of a reader's producers
// may run ahead of the consumer. It is a constant: no caller or workload
// uses another value. The benchmark pays for it on every clip extracted
// alone (DESIGN.md "Pooled allocation and decode-ahead").
const prefetchDepth = 2

// Prefetch counters: producer goroutines started, and frames served from
// the decode-ahead channels vs. decoded synchronously after the producers
// stopped early.
var (
	metPrefetchProducers = obs.Default.Counter("video.prefetch.producers")
	metPrefetchServed    = obs.Default.Counter("video.prefetch.served")
	metPrefetchFallback  = obs.Default.Counter("video.prefetch.fallback")
)

// producersCtxKey carries a call's decode-ahead producer count.
type producersCtxKey struct{}

// WithProducers returns a context whose readers (NewReaderContext) decode
// ahead on n producer goroutines. A context without a count, or n < 1,
// means one. The clip-set runner sets it when its clips leave workers
// idle (core.System.RunClips).
func WithProducers(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, producersCtxKey{}, n)
}

// producersFrom returns the producer count ctx carries, at least one.
func producersFrom(ctx context.Context) int {
	n, _ := ctx.Value(producersCtxKey{}).(int)
	return max(n, 1)
}

// prefetched is one decoded frame in flight from producer to consumer.
type prefetched struct {
	f   *Frame
	idx int
}

// startPrefetch launches the reader's producers, at most one per sampled
// frame, each with a channel depth frames deep. Producer k decodes
// start+k·gap, then every n·gap after it, so the consumer's i-th frame is
// the next one on channel i mod n. A producer blocks once depth frames are
// waiting, and exits when its share of the clip ends or ctx is cancelled;
// either way it closes its channel.
func (r *Reader) startPrefetch(parent context.Context, depth, n int) {
	n = min(n, (r.clip.Len()-r.next+r.gap-1)/r.gap)
	ctx, cancel := context.WithCancel(parent)
	r.cancel = cancel
	r.chs = make([]chan prefetched, n)
	clip, stride := r.clip, n*r.gap
	for k := range r.chs {
		ch := make(chan prefetched, depth)
		r.chs[k] = ch
		go func(start int) {
			defer close(ch)
			for idx := start; idx < clip.Len(); idx += stride {
				if ctx.Err() != nil {
					return
				}
				f := clip.Frame(idx)
				select {
				case ch <- prefetched{f: f, idx: idx}:
				case <-ctx.Done():
					return
				}
			}
		}(r.next + k*r.gap)
	}
	metPrefetchProducers.Add(int64(n))
}

// fetch returns frame idx, preferring the decode-ahead channels. The
// producers emit exactly the consumer's index sequence in turn, so an open
// channel always yields the requested frame next; a closed channel (the
// producers were cancelled) or, defensively, an out-of-sequence frame
// stops every producer and switches the reader to synchronous decode
// permanently.
func (r *Reader) fetch(idx int) *Frame {
	if r.chs != nil {
		if p, ok := <-r.chs[r.turn]; ok && p.idx == idx {
			r.turn = (r.turn + 1) % len(r.chs)
			metPrefetchServed.Inc()
			return p.f
		}
		r.stopPrefetch()
		metPrefetchFallback.Inc()
	}
	return r.clip.Frame(idx)
}

// stopPrefetch cancels every producer and drains every channel, which
// returns once each producer has closed its channel: no producer outlives
// the call, and no frame stays pinned in a channel.
func (r *Reader) stopPrefetch() {
	if r.cancel != nil {
		r.cancel()
		r.cancel = nil
	}
	for _, ch := range r.chs {
		for range ch {
		}
	}
	r.chs = nil
}

// Close releases the reader's decode-ahead resources: it stops the
// producers as a fallback does. Close is idempotent and safe on readers
// without producers. Readers that are read to end of clip do not strictly
// require Close (the producers exit on their own), but callers that may
// stop early must call it to avoid leaking producers.
func (r *Reader) Close() { r.stopPrefetch() }
