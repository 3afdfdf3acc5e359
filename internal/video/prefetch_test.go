package video

import (
	"bytes"
	"context"
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

// readerAt is NewReader at an explicit decode-ahead depth.
func readerAt(depth int, clip *Clip, gap, decodeW, decodeH int, acct *costmodel.Accountant) *Reader {
	return newReader(context.Background(), clip, gap, decodeW, decodeH, acct, depth)
}

func TestReaderPrefetchMatchesSync(t *testing.T) {
	clip := prefetchTestClip(23)
	for _, gap := range []int{1, 3, 7, 50} {
		syncAcct := costmodel.NewAccountant()
		sf, si, sc := readAll(readerAt(0, clip, gap, 640, 360, syncAcct))

		for _, depth := range []int{1, 2, 5} {
			acct := costmodel.NewAccountant()
			r := readerAt(depth, clip, gap, 640, 360, acct)
			pf, pi, pc := readAll(r)
			r.Close()
			if len(pf) != len(sf) {
				t.Fatalf("gap %d depth %d: %d frames, sync got %d", gap, depth, len(pf), len(sf))
			}
			for i := range pf {
				if pi[i] != si[i] {
					t.Fatalf("gap %d depth %d: index %d = %d, sync %d", gap, depth, i, pi[i], si[i])
				}
				if !bytes.Equal(pf[i].Pix, sf[i].Pix) {
					t.Fatalf("gap %d depth %d: frame %d pixels differ from sync", gap, depth, i)
				}
			}
			if pc != sc {
				t.Fatalf("gap %d depth %d: decode cost %v, sync %v", gap, depth, pc, sc)
			}
		}
	}
}

func TestReaderCloseCancelsProducer(t *testing.T) {
	cs := &prefetchCountingSource{}
	for i := 0; i < 200; i++ {
		cs.src.Frames = append(cs.src.Frames, NewFrame(4, 4, 4, 4))
	}
	cs.src.Rate = 10
	r := readerAt(3, &Clip{Source: cs}, 1, 64, 64, costmodel.NewAccountant())
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

	sf, _, sc := readAll(readerAt(0, clip, 2, 320, 180, costmodel.NewAccountant()))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	acct := costmodel.NewAccountant()
	r := NewReaderContext(ctx, clip, 2, 320, 180, acct)
	defer r.Close()
	var got []*Frame
	for i := 0; ; i++ {
		f, _ := r.Next()
		if f == nil {
			break
		}
		got = append(got, f)
		if i == 2 {
			cancel() // producer stops; reader must continue synchronously
		}
	}
	if len(got) != len(sf) {
		t.Fatalf("read %d frames after mid-clip cancel, want %d", len(got), len(sf))
	}
	for i := range got {
		if !bytes.Equal(got[i].Pix, sf[i].Pix) {
			t.Fatalf("frame %d differs after mid-clip cancel", i)
		}
	}
	if acct.Total() != sc {
		t.Fatalf("decode cost %v after cancel, sync %v", acct.Total(), sc)
	}
}

func TestReaderDepthZeroNoGoroutine(t *testing.T) {
	cs := &prefetchCountingSource{}
	cs.src.Frames = []*Frame{NewFrame(4, 4, 4, 4), NewFrame(4, 4, 4, 4)}
	cs.src.Rate = 10
	r := readerAt(0, &Clip{Source: cs}, 1, 64, 64, costmodel.NewAccountant())
	if cs.calls.Load() != 0 {
		t.Error("depth-0 reader decoded before Next")
	}
	r.Next()
	if cs.calls.Load() != 1 {
		t.Errorf("depth-0 reader decoded %d frames for one Next", cs.calls.Load())
	}
	r.Close() // no-op, must not panic
}
