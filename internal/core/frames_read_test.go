package core

import (
	"sync/atomic"
	"testing"

	"otif/internal/dataset"
	"otif/internal/video"
)

// countingSource counts the Frame calls made on the source it wraps.
type countingSource struct {
	video.FrameSource
	calls atomic.Int64
}

func (c *countingSource) Frame(idx int) *video.Frame {
	c.calls.Add(1)
	return c.FrameSource.Frame(idx)
}

// TestRunSetReadsEachProcessedFrameOnce pins "frames read = frames
// processed" through RunSet: the clip loop, the detector and the proxy
// work from the frame the reader hands them, so no frame is read twice
// and no skipped frame is read at all, at gap 1, at gap 4, and at gap 4
// with the proxy choosing windows.
func TestRunSetReadsEachProcessedFrameOnce(t *testing.T) {
	sys := smallSystem(t)
	gap1 := sys.Best
	gap1.Gap = 1
	gap4 := gap1
	gap4.Gap = 4
	proxied := gap4
	proxied.UseProxy, proxied.ProxyIdx, proxied.ProxyThresh = true, 0, 0.3
	for name, cfg := range map[string]Config{"gap1": gap1, "gap4": gap4, "gap4_proxy": proxied} {
		clips := make([]*dataset.ClipTruth, len(sys.DS.Val))
		sources := make([]*countingSource, len(clips))
		want := int64(0)
		for i, ct := range sys.DS.Val {
			sources[i] = &countingSource{FrameSource: ct.Clip.Source}
			clips[i] = &dataset.ClipTruth{Clip: &video.Clip{ID: ct.Clip.ID, Source: sources[i]}, World: ct.World}
			want += int64((ct.Clip.Len() + cfg.Gap - 1) / cfg.Gap)
		}
		before := metFrames.Value()
		sys.RunSet(cfg, clips)
		processed := metFrames.Value() - before
		reads := int64(0)
		for _, s := range sources {
			reads += s.calls.Load()
		}
		if processed != want || reads != processed {
			t.Errorf("%s: %d frames read, %d processed, want both %d", name, reads, processed, want)
		}
	}
}
