package video

import "math"

// DiffTable holds |d - offset| for every difference d = v - b of two pixel
// values, at index d+255. The proxy's contrast features and the detector's
// difference plane both subtract a background pixel and a per-frame
// brightness offset from an image pixel; v - b is an exact integer in
// [-255, 255], so the 511 values filled once per frame are, bit for bit,
// what float64(v) - float64(b) - offset and an absolute value computed per
// pixel. The array has 512 entries so that a masked index needs no bounds
// check; the last is never read.
type DiffTable [512]float64

// Fill computes the table for one brightness offset.
func (t *DiffTable) Fill(offset float64) {
	for i := range t[:511] {
		t[i] = math.Abs(float64(i-255) - offset)
	}
}

// At returns |v - b - offset|.
func (t *DiffTable) At(v, b uint8) float64 {
	return t[(int(v)-int(b)+255)&511]
}
