package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p := Point{3, 4}
	q := Point{0, 0}
	if got := p.Dist(q); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := p.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := p.Add(Point{1, -1}); got != (Point{4, 3}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(Point{1, 1}); got != (Point{2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := q.Lerp(p, 0.5); got != (Point{1.5, 2}) {
		t.Errorf("Lerp = %v", got)
	}
}

func TestRectFromBoundsNormalizes(t *testing.T) {
	r := RectFromBounds(10, 20, 2, 5)
	if r.X != 2 || r.Y != 5 || r.W != 8 || r.H != 15 {
		t.Errorf("RectFromBounds = %+v", r)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{X: 0, Y: 0, W: 10, H: 20}
	if r.Area() != 200 {
		t.Errorf("Area = %v", r.Area())
	}
	if r.Center() != (Point{5, 10}) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(Point{0, 0}) {
		t.Error("Contains top-left should be true")
	}
	if r.Contains(Point{10, 20}) {
		t.Error("Contains bottom-right (exclusive) should be false")
	}
	if (Rect{}).Area() != 0 {
		t.Error("empty rect area should be 0")
	}
	if !(Rect{W: -1, H: 5}).Empty() {
		t.Error("negative width should be empty")
	}
}

func TestIntersectUnion(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 10, 10}
	inter := a.Intersect(b)
	if inter != (Rect{5, 5, 5, 5}) {
		t.Errorf("Intersect = %v", inter)
	}
	u := a.Union(b)
	if u != (Rect{0, 0, 15, 15}) {
		t.Errorf("Union = %v", u)
	}
	if !a.Intersects(b) {
		t.Error("should intersect")
	}
	c := Rect{20, 20, 5, 5}
	if a.Intersects(c) {
		t.Error("disjoint rects should not intersect")
	}
	if !a.Intersect(c).Empty() {
		t.Error("disjoint intersection should be empty")
	}
	// Union with empty returns the other operand.
	if a.Union(Rect{}) != a {
		t.Error("union with empty should be identity")
	}
	if (Rect{}).Union(a) != a {
		t.Error("union with empty should be identity")
	}
}

func TestIoUKnownValues(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	if got := a.IoU(a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self IoU = %v", got)
	}
	b := Rect{5, 0, 10, 10}
	// intersection 50, union 150
	if got := a.IoU(b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("IoU = %v, want 1/3", got)
	}
	if got := a.IoU(Rect{20, 20, 1, 1}); got != 0 {
		t.Errorf("disjoint IoU = %v", got)
	}
}

func randRect(rng *rand.Rand) Rect {
	return Rect{
		X: rng.Float64()*200 - 100,
		Y: rng.Float64()*200 - 100,
		W: rng.Float64() * 100,
		H: rng.Float64() * 100,
	}
}

func TestIoUProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randRect(r), randRect(r)
		iou := a.IoU(b)
		// Bounds.
		if iou < 0 || iou > 1 {
			return false
		}
		// Symmetry.
		if math.Abs(iou-b.IoU(a)) > 1e-12 {
			return false
		}
		// Intersection is contained in both (up to float rounding).
		in := a.Intersect(b)
		if !in.Empty() && (!containsApprox(a, in) || !containsApprox(b, in)) {
			return false
		}
		// Union contains both (up to float rounding).
		u := a.Union(b)
		return containsApprox(u, a) && containsApprox(u, b)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// containsApprox reports whether q lies within r, with a small tolerance
// for floating-point rounding in Union/Intersect (which store width = x1-x0, so MaxX can be a
// few ULPs off x1).
func containsApprox(r, q Rect) bool {
	const eps = 1e-9
	if q.Empty() {
		return true
	}
	return q.X >= r.X-eps && q.Y >= r.Y-eps &&
		q.MaxX() <= r.MaxX()+eps && q.MaxY() <= r.MaxY()+eps
}

func TestTranslateScaleClip(t *testing.T) {
	r := Rect{1, 2, 3, 4}
	if got := r.Translate(1, -1); got != (Rect{2, 1, 3, 4}) {
		t.Errorf("Translate = %v", got)
	}
	if got := r.Scale(2); got != (Rect{2, 4, 6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := r.Clip(Rect{0, 0, 2, 3}); got != (Rect{1, 2, 1, 1}) {
		t.Errorf("Clip = %v", got)
	}
}

func TestPolygonContains(t *testing.T) {
	square := Polygon{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	if !square.Contains(Point{5, 5}) {
		t.Error("center should be inside")
	}
	if square.Contains(Point{15, 5}) {
		t.Error("outside point should be outside")
	}
	tri := Polygon{{0, 0}, {10, 0}, {5, 10}}
	if !tri.Contains(Point{5, 3}) {
		t.Error("triangle interior")
	}
	if tri.Contains(Point{0, 9}) {
		t.Error("triangle exterior")
	}
	if (Polygon{{0, 0}, {1, 1}}).Contains(Point{0.5, 0.5}) {
		t.Error("degenerate polygon contains nothing")
	}
}

func TestPolygonBounds(t *testing.T) {
	p := Polygon{{1, 2}, {5, -1}, {3, 7}}
	b := p.Bounds()
	want := RectFromBounds(1, -1, 5, 7)
	if b != want {
		t.Errorf("Bounds = %v, want %v", b, want)
	}
	if !(Polygon{}).Bounds().Empty() {
		t.Error("empty polygon bounds should be empty")
	}
}
