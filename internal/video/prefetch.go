package video

import (
	"context"

	"otif/internal/obs"
)

// This file implements the decode-ahead pipeline: a Reader can run its
// frame decoding in a producer goroutine that stays a bounded number of
// frames ahead of the consumer, overlapping decode (frame synthesis or
// codec work) with downstream detection and tracking. The producer walks
// exactly the sampled index sequence the synchronous path would, and all
// accounting — decode cost, the video.frames_decoded counter — happens on
// the consumer side in consumption order, so results and metrics are
// bit-identical with prefetching on, off, or cancelled mid-clip.

// prefetchDepth is how many decoded frames a reader's producer may run
// ahead of the consumer. It is a constant: no caller or workload uses
// another value. The benchmark pays for it on every clip extracted alone
// (DESIGN.md "Pooled allocation and decode-ahead").
const prefetchDepth = 2

// Prefetch effectiveness counters: frames served from the decode-ahead
// channel vs. decoded synchronously after the producer stopped early.
var (
	metPrefetchServed   = obs.Default.Counter("video.prefetch.served")
	metPrefetchFallback = obs.Default.Counter("video.prefetch.fallback")
)

// prefetched is one decoded frame in flight from producer to consumer.
type prefetched struct {
	f   *Frame
	idx int
}

// startPrefetch launches the reader's producer goroutine with the given
// channel depth. The producer decodes the same index sequence Next will
// request — start, start+gap, ... — and blocks once depth frames are
// waiting. It exits when the clip ends or ctx is cancelled; either way it
// closes the channel, and the consumer falls back to synchronous decode
// for any frames the producer did not deliver.
func (r *Reader) startPrefetch(parent context.Context, depth int) {
	ctx, cancel := context.WithCancel(parent)
	r.cancel = cancel
	ch := make(chan prefetched, depth)
	r.ch = ch
	clip, gap, start := r.clip, r.gap, r.next
	go func() {
		defer close(ch)
		for idx := start; idx < clip.Len(); idx += gap {
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
	}()
}

// fetch returns frame idx, preferring the decode-ahead channel. The
// producer emits exactly the consumer's index sequence, so an open channel
// always yields the requested frame next; a closed channel (clip done or
// cancelled) switches the reader to synchronous decode permanently.
func (r *Reader) fetch(idx int) *Frame {
	if r.ch != nil {
		if p, ok := <-r.ch; ok && p.idx == idx {
			metPrefetchServed.Inc()
			return p.f
		}
		// Closed (or, defensively, out of sequence): decode synchronously
		// from here on.
		r.ch = nil
		metPrefetchFallback.Inc()
	}
	return r.clip.Frame(idx)
}

// Close releases the reader's decode-ahead resources: it cancels the
// producer goroutine and drains any frames already buffered so a pending
// send can complete. Close is idempotent and safe on readers without a
// producer. Readers that are read to end of clip do not strictly require
// Close (the producer exits on its own), but callers that may stop early
// must call it to avoid leaking the producer.
func (r *Reader) Close() {
	if r.cancel != nil {
		r.cancel()
		r.cancel = nil
	}
	if r.ch != nil {
		for range r.ch {
		}
		r.ch = nil
	}
}
