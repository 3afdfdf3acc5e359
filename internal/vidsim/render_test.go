package vidsim

import (
	"testing"

	"otif/internal/costmodel"
	"otif/internal/obs"
	"otif/internal/video"
)

// TestCachedClipRendersEachFrameOnce: a 10-frame clip read twice through
// the frame cache, under a budget that holds it, renders each frame once
// and fills each clip frame once; the second read is all hits and counts
// nothing.
func TestCachedClipRendersEachFrameOnce(t *testing.T) {
	video.SetCacheBudget(video.DefaultCacheBytes)
	defer video.SetCacheBudget(video.DefaultCacheBytes)
	w := NewWorld(testConfig(), 1, 42)
	clip := &video.Clip{Source: video.NewCachedSource(&Source{World: w})}
	if clip.Len() != 10 {
		t.Fatalf("clip holds %d frames, want 10", clip.Len())
	}
	fills := obs.Default.Counter("video.fills.clip_frames")
	fillBytes := obs.Default.Counter("video.fill_bytes.clip_frames")
	renders0, fills0, bytes0 := metRenders.Value(), fills.Value(), fillBytes.Value()
	for range 2 {
		r := video.NewReader(clip, 1, 320, 240, costmodel.NewAccountant())
		for f, _ := r.Next(); f != nil; f, _ = r.Next() {
		}
		r.Close()
	}
	if got := metRenders.Value() - renders0; got != 10 {
		t.Errorf("%d renders, want 10", got)
	}
	if got := fills.Value() - fills0; got != 10 {
		t.Errorf("%d clip-frame fills, want 10", got)
	}
	// Each fill is charged its pixels plus the entry overhead.
	if got, px := fillBytes.Value()-bytes0, int64(10*w.Cfg.SimW*w.Cfg.SimH); got <= px || got > px+10*1024 {
		t.Errorf("%d clip-frame fill bytes for %d pixels", got, px)
	}
}
