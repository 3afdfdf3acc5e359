package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPathLength(t *testing.T) {
	p := Path{{0, 0}, {3, 4}, {3, 14}}
	if got := p.Length(); got != 15 {
		t.Errorf("Length = %v, want 15", got)
	}
	if (Path{}).Length() != 0 {
		t.Error("empty path length should be 0")
	}
	if (Path{{1, 1}}).Length() != 0 {
		t.Error("single-point path length should be 0")
	}
}

func TestPointAt(t *testing.T) {
	p := Path{{0, 0}, {10, 0}}
	cases := []struct {
		t    float64
		want Point
	}{
		{0, Point{0, 0}},
		{0.5, Point{5, 0}},
		{1, Point{10, 0}},
		{-1, Point{0, 0}},
		{2, Point{10, 0}},
	}
	for _, c := range cases {
		if got := p.PointAt(c.t); got.Dist(c.want) > 1e-9 {
			t.Errorf("PointAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	// Multi-segment arc-length parameterization.
	p2 := Path{{0, 0}, {10, 0}, {10, 10}}
	if got := p2.PointAt(0.75); got.Dist(Point{10, 5}) > 1e-9 {
		t.Errorf("PointAt(0.75) = %v, want (10,5)", got)
	}
}

func TestResample(t *testing.T) {
	p := Path{{0, 0}, {10, 0}}
	r := p.Resample(5)
	if len(r) != 5 {
		t.Fatalf("len = %d", len(r))
	}
	for i, pt := range r {
		want := Point{float64(i) * 2.5, 0}
		if pt.Dist(want) > 1e-9 {
			t.Errorf("point %d = %v, want %v", i, pt, want)
		}
	}
	if got := p.Resample(1); len(got) != 1 || got[0] != (Point{0, 0}) {
		t.Errorf("Resample(1) = %v", got)
	}
	if p.Resample(0) != nil {
		t.Error("Resample(0) should be nil")
	}
}

func TestResampleEndpointsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%18) + 2
		p := make(Path, rng.Intn(8)+2)
		for i := range p {
			p[i] = Point{rng.Float64() * 100, rng.Float64() * 100}
		}
		r := p.Resample(n)
		return len(r) == n &&
			r[0].Dist(p[0]) < 1e-9 &&
			r[n-1].Dist(p[len(p)-1]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPathDist(t *testing.T) {
	a := Path{{0, 0}, {10, 0}}
	b := Path{{0, 5}, {10, 5}}
	if got := PathDist(a, b, 10); math.Abs(got-5) > 1e-9 {
		t.Errorf("PathDist = %v, want 5", got)
	}
	if got := PathDist(a, a, 10); got != 0 {
		t.Errorf("self distance = %v", got)
	}
	// Reversed path has a large distance (direction matters).
	rev := Path{{10, 0}, {0, 0}}
	if got := PathDist(a, rev, 10); got < 4 {
		t.Errorf("reversed distance = %v, want large", got)
	}
}

func TestPathDistSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Path {
			p := make(Path, rng.Intn(6)+2)
			for i := range p {
				p[i] = Point{rng.Float64() * 100, rng.Float64() * 100}
			}
			return p
		}
		a, b := mk(), mk()
		d1 := PathDist(a, b, 20)
		d2 := PathDist(b, a, 20)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// resampleByPointAt is the Resample the one-walk version replaced: n
// independent PointAt calls, each measuring the path and walking it from
// the start.
func resampleByPointAt(p Path, n int) Path {
	if n <= 0 {
		return nil
	}
	out := make(Path, n)
	if n == 1 {
		out[0] = p.PointAt(0)
		return out
	}
	for i := 0; i < n; i++ {
		out[i] = p.PointAt(float64(i) / float64(n-1))
	}
	return out
}

// sameBits reports whether a and b have the same Float64bits, or are both
// NaN: which NaN an operation on two NaNs returns depends on how the
// compiler ordered its operands, not on the walk.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzResample checks the one-walk Resample against n PointAt calls, bit
// for bit, on arbitrary paths: the first byte picks small integer
// coordinates (where duplicate points and zero-length segments are
// common) or raw float64 bits (NaN, infinities, subnormals).
func FuzzResample(f *testing.F) {
	pt := func(x, y int16) []byte {
		return []byte{byte(x), byte(x >> 8), byte(y), byte(y >> 8)}
	}
	join := func(parts ...[]byte) []byte {
		out := []byte{0}
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, n := range []uint8{0, 1, 2, 20} {
		f.Add([]byte{0}, n)                                                  // empty path
		f.Add(join(pt(5, 7)), n)                                             // single point
		f.Add(join(pt(5, 7), pt(5, 7), pt(5, 7)), n)                         // one point, repeated
		f.Add(join(pt(0, 0), pt(10, 0), pt(10, 0), pt(10, 10), pt(3, 3)), n) // a zero-length segment
		f.Add(join(pt(-40, 2), pt(9, 90), pt(300, -7)), n)
	}
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint8) {
		if len(data) == 0 {
			return
		}
		raw, data := data[0]%2 == 1, data[1:]
		var p Path
		if raw {
			for ; len(data) >= 16; data = data[16:] {
				p = append(p, Point{
					X: math.Float64frombits(binary.LittleEndian.Uint64(data)),
					Y: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
				})
			}
		} else {
			for ; len(data) >= 4; data = data[4:] {
				p = append(p, Point{
					X: float64(int16(binary.LittleEndian.Uint16(data))) / 4,
					Y: float64(int16(binary.LittleEndian.Uint16(data[2:]))) / 4,
				})
			}
		}
		n := int(nRaw % 41)
		got, want := p.Resample(n), resampleByPointAt(p, n)
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("Resample(%d) of %v: %d points, PointAt gives %d", n, p, len(got), len(want))
		}
		for i := range want {
			if !sameBits(got[i].X, want[i].X) || !sameBits(got[i].Y, want[i].Y) {
				t.Fatalf("Resample(%d) of %v: point %d = %v, PointAt gives %v", n, p, i, got[i], want[i])
			}
		}
	})
}

// TestResampleMatchesPointAt runs the comparison FuzzResample makes on
// random paths with repeated points, at every n up to 40.
func TestResampleMatchesPointAt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		p := make(Path, rng.Intn(9))
		for i := range p {
			if i > 0 && rng.Intn(4) == 0 {
				p[i] = p[i-1]
				continue
			}
			p[i] = Point{rng.Float64() * 600, rng.Float64() * 400}
		}
		n := rng.Intn(41)
		got, want := p.Resample(n), resampleByPointAt(p, n)
		if len(got) != len(want) {
			t.Fatalf("Resample(%d): %d points, want %d", n, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) || math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
				t.Fatalf("Resample(%d) of %v: point %d = %v, PointAt gives %v", n, p, i, got[i], want[i])
			}
		}
	}
}
