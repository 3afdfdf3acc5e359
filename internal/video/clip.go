package video

import (
	"context"
	"fmt"

	"otif/internal/costmodel"
	"otif/internal/obs"
)

// metFramesDecoded counts frames returned by Reader.Next across all clips;
// pre-registered so the per-frame record is a single atomic add.
var metFramesDecoded = obs.Default.Counter("video.frames_decoded")

// FrameSource produces frames of a clip on demand. Sources are how the
// pipeline reads video: reduced-rate methods ask only for the frames they
// process, and each read is charged decode cost (the codec must decode
// every frame up to the requested one within a group of pictures, but the
// paper's pipelines decode sequentially at a chosen framerate, which is
// what Reader models).
type FrameSource interface {
	// Frame returns the frame at the given index (0-based).
	Frame(idx int) *Frame
	// Len returns the number of frames in the clip.
	Len() int
	// FPS returns the native framerate.
	FPS() int
}

// Clip is one sampled segment of video together with its identity within
// the dataset. Frames are produced lazily by the underlying source.
type Clip struct {
	ID     int // index within its set
	Source FrameSource
}

// Len returns the clip length in frames.
func (c *Clip) Len() int { return c.Source.Len() }

// FPS returns the clip's native framerate.
func (c *Clip) FPS() int { return c.Source.FPS() }

// Frame returns frame idx of the clip.
func (c *Clip) Frame(idx int) *Frame { return c.Source.Frame(idx) }

// Reader iterates over a clip at a reduced rate given by a sampling gap g
// (process 1 in every g frames), charging simulated decode cost at the
// given decode resolution to the accountant. It mirrors the paper's
// execution pipeline where frames are decoded at the object detector
// resolution, so lower-resolution configurations also decode faster.
// Decoding runs in a producer goroutine a bounded number of frames ahead
// (see prefetch.go); frames, costs and counters are bit-identical to
// synchronous decode.
type Reader struct {
	clip     *Clip
	gap      int
	decodeW  int
	decodeH  int
	acct     *costmodel.Accountant
	next     int
	lastIdx  int
	haveLast bool

	// Decode-ahead state; nil once the producer is gone.
	ch     chan prefetched
	cancel context.CancelFunc
}

// NewReader creates a reader over clip with sampling gap g (g >= 1),
// decoding at the given nominal resolution for cost purposes. Decode-ahead
// runs until end of clip; callers that may stop reading early
// should use NewReaderContext and Close.
func NewReader(clip *Clip, gap, decodeW, decodeH int, acct *costmodel.Accountant) *Reader {
	return NewReaderContext(context.Background(), clip, gap, decodeW, decodeH, acct)
}

// NewReaderContext is NewReader with a context bounding the reader's
// decode-ahead producer: cancelling ctx stops prefetching (the reader
// falls back to synchronous decode and remains fully usable). The caller
// should defer Close.
func NewReaderContext(ctx context.Context, clip *Clip, gap, decodeW, decodeH int, acct *costmodel.Accountant) *Reader {
	return newReader(ctx, clip, gap, decodeW, decodeH, acct, prefetchDepth)
}

// newReader is NewReaderContext at an explicit decode-ahead depth; depth 0
// decodes synchronously, which is the reference the tests compare against.
func newReader(ctx context.Context, clip *Clip, gap, decodeW, decodeH int, acct *costmodel.Accountant, depth int) *Reader {
	if gap < 1 {
		panic(fmt.Sprintf("video: invalid sampling gap %d", gap))
	}
	r := &Reader{clip: clip, gap: gap, decodeW: decodeW, decodeH: decodeH, acct: acct}
	if depth > 0 && clip.Len() > 0 {
		r.startPrefetch(ctx, depth)
	}
	return r
}

// Next returns the next sampled frame and its index, or (nil, -1) at end of
// clip. Decode cost is charged per returned frame, skipped frames included
// (costmodel.SampledDecodeCost).
func (r *Reader) Next() (*Frame, int) {
	if r.next >= r.clip.Len() {
		return nil, -1
	}
	idx := r.next
	skipped := 0
	if r.haveLast {
		skipped = idx - r.lastIdx - 1
	}
	r.acct.Add(costmodel.OpDecode, costmodel.SampledDecodeCost(r.decodeW, r.decodeH, skipped))
	f := r.fetch(idx)
	metFramesDecoded.Inc()
	r.lastIdx = idx
	r.haveLast = true
	r.next += r.gap
	return f, idx
}

// Set is an ordered collection of clips: one of the training, validation or
// test sets sampled from a dataset.
type Set struct {
	Name  string
	Clips []*Clip
}

// Frames returns the total number of frames across all clips.
func (s *Set) Frames() int {
	var n int
	for _, c := range s.Clips {
		n += c.Len()
	}
	return n
}

// Seconds returns the total video duration in seconds.
func (s *Set) Seconds() float64 {
	var t float64
	for _, c := range s.Clips {
		t += float64(c.Len()) / float64(c.FPS())
	}
	return t
}

// MemorySource is a FrameSource backed by an in-memory frame slice, used in
// tests and for decoded clip caches.
type MemorySource struct {
	Frames []*Frame
	Rate   int
}

// Frame implements FrameSource.
func (m *MemorySource) Frame(idx int) *Frame { return m.Frames[idx] }

// Len implements FrameSource.
func (m *MemorySource) Len() int { return len(m.Frames) }

// FPS implements FrameSource.
func (m *MemorySource) FPS() int { return m.Rate }
