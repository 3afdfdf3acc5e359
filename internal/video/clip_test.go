package video

import (
	"math"
	"testing"

	"otif/internal/costmodel"
)

func memClip(n, fps int) *Clip {
	frames := make([]*Frame, n)
	for i := range frames {
		frames[i] = NewFrame(8, 8, 8, 8)
		frames[i].Pix[0] = uint8(i)
	}
	return &Clip{Source: &MemorySource{Frames: frames, Rate: fps}}
}

func TestReaderVisitsEveryGapthFrame(t *testing.T) {
	clip := memClip(10, 10)
	acct := costmodel.NewAccountant()
	r := NewReader(clip, 3, 8, 8, acct)
	var visited []int
	for {
		f, idx := r.Next()
		if f == nil {
			break
		}
		visited = append(visited, idx)
		if f.Pix[0] != uint8(idx) {
			t.Errorf("frame %d content mismatch", idx)
		}
	}
	want := []int{0, 3, 6, 9}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
}

func TestReaderDecodeCostScalesWithGap(t *testing.T) {
	clip := memClip(32, 10)
	full := costmodel.NewAccountant()
	r := NewReader(clip, 1, 100, 100, full)
	for {
		if f, _ := r.Next(); f == nil {
			break
		}
	}
	sparse := costmodel.NewAccountant()
	r2 := NewReader(clip, 8, 100, 100, sparse)
	for {
		if f, _ := r2.Next(); f == nil {
			break
		}
	}
	if sparse.Get(costmodel.OpDecode) >= full.Get(costmodel.OpDecode) {
		t.Error("reduced-rate reading must decode cheaper")
	}
	// But not free: skipped frames still cost a fraction.
	perFrame := costmodel.DecodeCost(100, 100)
	if sparse.Get(costmodel.OpDecode) <= perFrame*4 {
		t.Error("skipped frames should still contribute partial decode cost")
	}
}

func TestReaderDecodeCostScalesWithResolution(t *testing.T) {
	clip := memClip(10, 10)
	hi := costmodel.NewAccountant()
	r := NewReader(clip, 1, 200, 200, hi)
	for {
		if f, _ := r.Next(); f == nil {
			break
		}
	}
	lo := costmodel.NewAccountant()
	r2 := NewReader(clip, 1, 100, 100, lo)
	for {
		if f, _ := r2.Next(); f == nil {
			break
		}
	}
	ratio := hi.Get(costmodel.OpDecode) / lo.Get(costmodel.OpDecode)
	if math.Abs(ratio-4) > 1e-9 {
		t.Errorf("decode cost ratio = %v, want 4 (pixel count)", ratio)
	}
}

func TestReaderPanicsOnBadGap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewReader(memClip(3, 10), 0, 8, 8, costmodel.NewAccountant())
}
