package video

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"otif/internal/costmodel"
)

// prefetchCountingSource wraps a MemorySource, counting Frame calls atomically so
// tests can observe producer-goroutine activity.
type prefetchCountingSource struct {
	src   MemorySource
	calls atomic.Int64
}

func (c *prefetchCountingSource) Frame(idx int) *Frame {
	c.calls.Add(1)
	return c.src.Frame(idx)
}
func (c *prefetchCountingSource) Len() int { return c.src.Len() }
func (c *prefetchCountingSource) FPS() int { return c.src.FPS() }

func prefetchTestClip(frames int) *Clip {
	src := &MemorySource{Rate: 10}
	for i := 0; i < frames; i++ {
		f := NewFrame(8, 6, 32, 24)
		for j := range f.Pix {
			f.Pix[j] = uint8(i*31 + j)
		}
		src.Frames = append(src.Frames, f)
	}
	return &Clip{ID: 0, Source: src}
}

// readAll drains a reader, returning frames, indices and total cost.
func readAll(r *Reader) ([]*Frame, []int, float64) {
	var frames []*Frame
	var idxs []int
	acct := r.acct
	for {
		f, idx := r.Next()
		if f == nil {
			break
		}
		frames = append(frames, f)
		idxs = append(idxs, idx)
	}
	return frames, idxs, acct.Total()
}

// readerAt is NewReader at an explicit decode-ahead depth and producer
// count.
func readerAt(depth, producers int, clip *Clip, gap, decodeW, decodeH int, acct *costmodel.Accountant) *Reader {
	return newReader(context.Background(), clip, gap, decodeW, decodeH, acct, depth, producers)
}

// TestReaderPrefetchMatchesSync: at every producer count, depth and gap,
// on clips of no frame, one frame, fewer frames than producers and lengths
// that are not a multiple of producers·gap, a prefetching reader returns
// the depth-0 reader's frames and indices, charges its decode cost and
// counts its video.frames_decoded, and leaves no producer behind.
func TestReaderPrefetchMatchesSync(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, frames := range []int{0, 1, 2, 7, 23} {
		clip := prefetchTestClip(frames)
		for _, gap := range []int{1, 3, 4} {
			syncAcct := costmodel.NewAccountant()
			decoded := metFramesDecoded.Value()
			sf, si, sc := readAll(readerAt(0, 1, clip, gap, 640, 360, syncAcct))
			syncDecoded := metFramesDecoded.Value() - decoded

			for _, producers := range []int{1, 2, 3} {
				for _, depth := range []int{1, 2, 5} {
					at := fmt.Sprintf("%d frames, gap %d, %d producers, depth %d", frames, gap, producers, depth)
					acct := costmodel.NewAccountant()
					decoded := metFramesDecoded.Value()
					r := readerAt(depth, producers, clip, gap, 640, 360, acct)
					pf, pi, pc := readAll(r)
					if got := metFramesDecoded.Value() - decoded; got != syncDecoded {
						t.Fatalf("%s: %d frames decoded, sync %d", at, got, syncDecoded)
					}
					r.Close()
					if len(pf) != len(sf) {
						t.Fatalf("%s: %d frames, sync got %d", at, len(pf), len(sf))
					}
					for i := range pf {
						if pi[i] != si[i] {
							t.Fatalf("%s: index %d = %d, sync %d", at, i, pi[i], si[i])
						}
						if !bytes.Equal(pf[i].Pix, sf[i].Pix) {
							t.Fatalf("%s: frame %d pixels differ from sync", at, i)
						}
					}
					if pc != sc {
						t.Fatalf("%s: decode cost %v, sync %v", at, pc, sc)
					}
				}
			}
		}
	}
	waitGoroutines(t, base)
}

// waitGoroutines fails t unless the goroutine count falls back to base
// within a second: a producer that has closed its channel may still be
// returning.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the readers", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReaderLeavesNoProducer: a reader closed mid-clip, one whose ctx is
// cancelled mid-clip and one that falls back on an out-of-sequence frame
// without Close each leave no producer goroutine, at one producer and at
// three.
func TestReaderLeavesNoProducer(t *testing.T) {
	clip := prefetchTestClip(40)
	for _, producers := range []int{1, 3} {
		base := runtime.NumGoroutine()
		r := readerAt(2, producers, clip, 1, 64, 64, costmodel.NewAccountant())
		r.Next()
		r.Next()
		r.Close()
		waitGoroutines(t, base)

		ctx, cancel := context.WithCancel(context.Background())
		r = newReader(ctx, clip, 1, 64, 64, costmodel.NewAccountant(), 2, producers)
		r.Next()
		cancel()
		waitGoroutines(t, base)
		if got, _, _ := readAll(r); len(got) != clip.Len()-1 {
			t.Fatalf("%d producers: %d frames after a mid-clip cancel, want %d", producers, len(got), clip.Len()-1)
		}

		fallback := metPrefetchFallback.Value()
		r = readerAt(2, producers, clip, 2, 64, 64, costmodel.NewAccountant())
		r.Next()
		r.next++ // the next frame asked for is not the one in the channel
		if f, idx := r.Next(); f == nil || idx != 3 || !bytes.Equal(f.Pix, clip.Frame(3).Pix) {
			t.Fatalf("%d producers: out-of-sequence read gave frame %d", producers, idx)
		}
		if metPrefetchFallback.Value() != fallback+1 || r.chs != nil {
			t.Fatalf("%d producers: an out-of-sequence frame did not stop the producers", producers)
		}
		waitGoroutines(t, base)
	}
}

func TestReaderCloseCancelsProducer(t *testing.T) {
	cs := &prefetchCountingSource{}
	for i := 0; i < 200; i++ {
		cs.src.Frames = append(cs.src.Frames, NewFrame(4, 4, 4, 4))
	}
	cs.src.Rate = 10
	r := readerAt(3, 1, &Clip{Source: cs}, 1, 64, 64, costmodel.NewAccountant())
	if f, _ := r.Next(); f == nil {
		t.Fatal("first frame missing")
	}
	r.Close()
	r.Close() // idempotent
	// The producer must stop: after Close returns and any in-flight decode
	// finishes, the call count stays put.
	settle := cs.calls.Load()
	deadline := time.Now().Add(time.Second)
	for {
		time.Sleep(5 * time.Millisecond)
		now := cs.calls.Load()
		if now == settle {
			break
		}
		settle = now
		if time.Now().After(deadline) {
			t.Fatal("producer kept decoding after Close")
		}
	}
	if settle > 10 {
		t.Errorf("producer decoded %d frames for a depth-3 reader closed after one read", settle)
	}
}

func TestReaderContextCancelFallsBackToSync(t *testing.T) {
	clip := prefetchTestClip(17)

	sf, _, sc := readAll(readerAt(0, 1, clip, 2, 320, 180, costmodel.NewAccountant()))

	for _, producers := range []int{1, 3} {
		ctx := context.Background() // one producer when the context names none
		if producers > 1 {
			ctx = WithProducers(ctx, producers)
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		acct := costmodel.NewAccountant()
		r := NewReaderContext(ctx, clip, 2, 320, 180, acct)
		if len(r.chs) != producers {
			t.Fatalf("a context carrying %d producers started %d", producers, len(r.chs))
		}
		var got []*Frame
		for i := 0; ; i++ {
			f, _ := r.Next()
			if f == nil {
				break
			}
			got = append(got, f)
			if i == 2 {
				cancel() // producers stop; reader must continue synchronously
			}
		}
		r.Close()
		if len(got) != len(sf) {
			t.Fatalf("%d producers: read %d frames after mid-clip cancel, want %d", producers, len(got), len(sf))
		}
		for i := range got {
			if !bytes.Equal(got[i].Pix, sf[i].Pix) {
				t.Fatalf("%d producers: frame %d differs after mid-clip cancel", producers, i)
			}
		}
		if acct.Total() != sc {
			t.Fatalf("%d producers: decode cost %v after cancel, sync %v", producers, acct.Total(), sc)
		}
	}
}

func TestReaderDepthZeroNoGoroutine(t *testing.T) {
	cs := &prefetchCountingSource{}
	cs.src.Frames = []*Frame{NewFrame(4, 4, 4, 4), NewFrame(4, 4, 4, 4)}
	cs.src.Rate = 10
	r := readerAt(0, 1, &Clip{Source: cs}, 1, 64, 64, costmodel.NewAccountant())
	if cs.calls.Load() != 0 {
		t.Error("depth-0 reader decoded before Next")
	}
	r.Next()
	if cs.calls.Load() != 1 {
		t.Errorf("depth-0 reader decoded %d frames for one Next", cs.calls.Load())
	}
	r.Close() // no-op, must not panic
}
