package geom

import (
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
