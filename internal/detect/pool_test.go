package detect

import (
	"testing"

	"otif/internal/geom"
)

func TestArenaTakeSemantics(t *testing.T) {
	// nil arena: plain heap copy, nil on empty.
	var nilArena *Arena
	if got := nilArena.take(nil); got != nil {
		t.Errorf("nil arena take(empty) = %v, want nil", got)
	}
	src := []Detection{{FrameIdx: 1, Box: geom.Rect{X: 1, Y: 2, W: 3, H: 4}}}
	cp := nilArena.take(src)
	if len(cp) != 1 || cp[0] != src[0] {
		t.Fatalf("nil arena take copied wrong contents: %+v", cp)
	}
	src[0].FrameIdx = 9
	if cp[0].FrameIdx != 1 {
		t.Error("nil arena take must copy, not alias")
	}

	a := GetArena()
	if got := a.take(nil); got != nil {
		t.Errorf("arena take(empty) = %v, want nil", got)
	}
	first := a.take([]Detection{{FrameIdx: 1}, {FrameIdx: 2}})
	second := a.take([]Detection{{FrameIdx: 3}})
	if len(first) != 2 || len(second) != 1 {
		t.Fatalf("arena take lengths wrong: %d, %d", len(first), len(second))
	}
	if first[0].FrameIdx != 1 || first[1].FrameIdx != 2 || second[0].FrameIdx != 3 {
		t.Fatalf("arena take contents wrong: %+v %+v", first, second)
	}
	// The returned slices are capped: appending to one must not clobber
	// its neighbor in the slab.
	_ = append(first, Detection{FrameIdx: 99})
	if second[0].FrameIdx != 3 {
		t.Error("append to an arena slice clobbered the next allocation")
	}
	a.Release()
}

func TestArenaOversizedRequest(t *testing.T) {
	a := GetArena()
	defer a.Release()
	big := make([]Detection, arenaSlabDets+10)
	for i := range big {
		big[i].FrameIdx = i
	}
	got := a.take(big)
	if len(got) != len(big) {
		t.Fatalf("oversized take length %d, want %d", len(got), len(big))
	}
	for i := range got {
		if got[i].FrameIdx != i {
			t.Fatalf("oversized take contents wrong at %d", i)
		}
	}
}

func TestArenaSteadyStateZeroAlloc(t *testing.T) {
	a := GetArena()
	defer a.Release()
	src := []Detection{{FrameIdx: 1}, {FrameIdx: 2}, {FrameIdx: 3}}
	// Warm: fill and recycle once so the slab exists.
	for i := 0; i < 10; i++ {
		a.take(src)
	}
	a.Release()
	b := GetArena() // may or may not be the same arena; slabs either way
	defer b.Release()
	b.take(src)
	if n := testing.AllocsPerRun(100, func() {
		// Stay within one slab: reset the carve point by releasing into
		// the pool is outside this loop; instead just keep taking while
		// capacity remains — 100 runs * 3 dets fits a 512-det slab twice
		// over only if we reset, so reset via the exported surface.
		for i := range b.slabs {
			b.slabs[i] = b.slabs[i][:0]
		}
		b.cur = 0
		b.take(src)
	}); n != 0 {
		t.Errorf("arena steady-state take allocates %v per op, want 0", n)
	}
}

func TestDetectorReleaseRecyclesScratch(t *testing.T) {
	miss0 := metScratchMiss.Value()
	s1 := getAnalyzeScratch(64 * 64)
	s1.labels = make([]int32, 64*64)
	putAnalyzeScratch(s1)
	// Same size class: should usually come back (sync.Pool may drop).
	reused := false
	for i := 0; i < 50 && !reused; i++ {
		s2 := getAnalyzeScratch(64 * 64)
		reused = s2 == s1
		putAnalyzeScratch(s2)
	}
	if !reused {
		t.Skip("sync.Pool never returned the same scratch (drops are legal)")
	}
	if metScratchMiss.Value() == miss0 && miss0 == 0 {
		t.Error("pool counters did not move")
	}
}

// TestDetectWindowsSteadyStateZeroAlloc pins the windowed detector, once
// its scratch and arena have grown, to no allocation per call: no plane,
// no list, no sort closure.
func TestDetectWindowsSteadyStateZeroAlloc(t *testing.T) {
	frame, bg, windows := benchScene()
	d := &Detector{Cfg: Config{Arch: ArchYOLO, Width: 2 * frame.NomW, Height: 2 * frame.NomH, ConfThresh: 0.25},
		Background: bg, Classify: SizeClassifier{BusMinArea: 3000}, Arena: GetArena()}
	defer d.Arena.Release()
	defer d.Release()
	if len(d.DetectWindows(frame, 0, windows)) == 0 {
		t.Fatal("the scene yields no detection; the gate is vacuous")
	}
	if n := testing.AllocsPerRun(100, func() {
		d.Arena.slabs[0], d.Arena.cur = d.Arena.slabs[0][:0], 0
		d.DetectWindows(frame, 0, windows)
	}); n != 0 {
		t.Errorf("steady-state DetectWindows allocates %v per call, want 0", n)
	}
}
