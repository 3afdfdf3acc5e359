// Package geom provides the 2D geometric primitives used throughout OTIF:
// points, rectangles, polygons and polyline paths, together with the
// intersection-over-union and containment predicates that the detector,
// proxy model, tracker and query engine all share.
package geom

import (
	"fmt"
	"math"
)

// Point is a 2D point in frame coordinates (pixels, origin top-left).
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Sqrt(p.X*p.X + p.Y*p.Y) }

// Lerp linearly interpolates between p (t=0) and q (t=1).
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Rect is an axis-aligned rectangle specified by its top-left corner and
// dimensions. A Rect with W <= 0 or H <= 0 is empty.
type Rect struct {
	X, Y, W, H float64
}

// RectFromBounds builds a Rect from two corner coordinate pairs, normalizing
// the corner order.
func RectFromBounds(x0, y0, x1, y1 float64) Rect {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// Empty reports whether the rectangle has non-positive area.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Area returns the rectangle area, or 0 if the rectangle is empty.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.W * r.H
}

// MaxX returns the x coordinate of the right edge.
func (r Rect) MaxX() float64 { return r.X + r.W }

// MaxY returns the y coordinate of the bottom edge.
func (r Rect) MaxY() float64 { return r.Y + r.H }

// Center returns the rectangle center point.
func (r Rect) Center() Point { return Point{r.X + r.W/2, r.Y + r.H/2} }

// Contains reports whether p lies inside r (inclusive of the top-left edge,
// exclusive of the bottom-right edge, matching pixel-grid semantics).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X && p.X < r.MaxX() && p.Y >= r.Y && p.Y < r.MaxY()
}

// Intersect returns the intersection of r and q (possibly empty).
func (r Rect) Intersect(q Rect) Rect {
	x0 := math.Max(r.X, q.X)
	y0 := math.Max(r.Y, q.Y)
	x1 := math.Min(r.MaxX(), q.MaxX())
	y1 := math.Min(r.MaxY(), q.MaxY())
	if x1 <= x0 || y1 <= y0 {
		return Rect{}
	}
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// Union returns the smallest rectangle containing both r and q.
func (r Rect) Union(q Rect) Rect {
	if r.Empty() {
		return q
	}
	if q.Empty() {
		return r
	}
	x0 := math.Min(r.X, q.X)
	y0 := math.Min(r.Y, q.Y)
	x1 := math.Max(r.MaxX(), q.MaxX())
	y1 := math.Max(r.MaxY(), q.MaxY())
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// Intersects reports whether r and q overlap with positive area.
func (r Rect) Intersects(q Rect) bool { return !r.Intersect(q).Empty() }

// IoU returns the intersection-over-union of r and q in [0, 1].
func (r Rect) IoU(q Rect) float64 {
	inter := r.Intersect(q).Area()
	if inter == 0 {
		return 0
	}
	return inter / (r.Area() + q.Area() - inter)
}

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy float64) Rect {
	return Rect{X: r.X + dx, Y: r.Y + dy, W: r.W, H: r.H}
}

// Scale returns r with all coordinates and dimensions multiplied by f.
func (r Rect) Scale(f float64) Rect {
	return Rect{X: r.X * f, Y: r.Y * f, W: r.W * f, H: r.H * f}
}

// Clip returns r clipped to the bounds rectangle.
func (r Rect) Clip(bounds Rect) Rect { return r.Intersect(bounds) }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("Rect(%.1f,%.1f %gx%g)", r.X, r.Y, r.W, r.H)
}

// Polygon is a closed polygon given by its vertices in order.
type Polygon []Point

// Contains reports whether p lies inside the polygon, using the even-odd
// ray-casting rule. Points exactly on an edge may be classified either way.
func (pg Polygon) Contains(p Point) bool {
	n := len(pg)
	if n < 3 {
		return false
	}
	inside := false
	j := n - 1
	for i := 0; i < n; i++ {
		pi, pj := pg[i], pg[j]
		if (pi.Y > p.Y) != (pj.Y > p.Y) {
			xCross := pi.X + (p.Y-pi.Y)/(pj.Y-pi.Y)*(pj.X-pi.X)
			if p.X < xCross {
				inside = !inside
			}
		}
		j = i
	}
	return inside
}

// Bounds returns the bounding rectangle of the polygon.
func (pg Polygon) Bounds() Rect {
	if len(pg) == 0 {
		return Rect{}
	}
	minX, minY := pg[0].X, pg[0].Y
	maxX, maxY := minX, minY
	for _, p := range pg[1:] {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	return RectFromBounds(minX, minY, maxX, maxY)
}
