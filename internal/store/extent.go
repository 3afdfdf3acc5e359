package store

import (
	"math"

	"otif/internal/geom"
)

// The rectangle tests that let region queries answer without interpolating:
// what a region can accept (regionExtent), where its edges run
// (edgeExtents) and where a detection pair's interpolated centres can lie
// (pairEnd.span). Each is conservative by a margin over the rounding of the
// arithmetic it stands in for, and a NaN never prunes.

// extent is a closed coordinate box [minX, maxX] x [minY, maxY], held as
// four bounds because a geom.Rect's X + W cannot express an infinite one.
type extent struct{ minX, minY, maxX, maxY float64 }

// everywhere is the extent that prunes nothing.
var everywhere = extent{math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1)}

// roundingMargin, times the magnitude of the coordinates that went into a
// computed abscissa or ordinate, is far above that computation's rounding
// error (a few units of 2^-53 relative) and far below a pixel.
const roundingMargin = 1e-9

// regionExtent bounds the points region.Contains can accept. The ray cast
// flips only on an edge with one vertex above the point and one not, so an
// accepted point has minY <= Y < maxY exactly. Around a closed polygon such
// edges are even in number, so a point left of all their crossing abscissas
// flips an even number of times and one right of them never: an accepted
// point has X in [minX, maxX] up to the abscissas' rounding, which the
// margin covers. Both arguments need every edge to take part. An edge with
// a NaN or infinite coordinate (or one so large that a difference
// overflows) compares false or yields a NaN abscissa and is silently
// dropped; the polygon is then not closed and bounds nothing.
func regionExtent(region geom.Polygon) extent {
	if len(region) == 0 {
		return extent{} // Contains is false everywhere; any extent will do
	}
	const huge = 1e150
	e := extent{region[0].X, region[0].Y, region[0].X, region[0].Y}
	for _, p := range region {
		if !(math.Abs(p.X) <= huge && math.Abs(p.Y) <= huge) {
			return everywhere
		}
		e.minX, e.maxX = min(e.minX, p.X), max(e.maxX, p.X)
		e.minY, e.maxY = min(e.minY, p.Y), max(e.maxY, p.Y)
	}
	m := roundingMargin * (math.Abs(e.minX) + math.Abs(e.maxX))
	e.minX -= m
	e.maxX += m
	return e
}

// edgeExtents returns the bounding box of each edge of a region whose
// coordinates are all finite (its regionExtent is not everywhere), grown in
// X over the rounding of the edge's crossing abscissa.
func edgeExtents(region geom.Polygon) []extent {
	out := make([]extent, len(region))
	j := len(region) - 1
	for i, pi := range region {
		pj := region[j]
		m := roundingMargin * (math.Abs(pi.X) + math.Abs(pj.X))
		out[i] = extent{min(pi.X, pj.X) - m, min(pi.Y, pj.Y), max(pi.X, pj.X) + m, max(pi.Y, pj.Y)}
		j = i
	}
	return out
}

// holds is the cheap half of region.Contains: false only for points the
// ray cast rejects.
func (e extent) holds(p geom.Point) bool {
	return p.Y >= e.minY && p.Y < e.maxY && p.X >= e.minX && p.X <= e.maxX
}

// pairEnd is what a detection contributes to the spans of the two pairs it
// ends: its box centre and the size of the coordinates the centre came from.
type pairEnd struct {
	c      geom.Point
	sx, sy float64
}

func pairEndOf(b geom.Rect) pairEnd {
	return pairEnd{b.Center(), math.Abs(b.X) + math.Abs(b.W), math.Abs(b.Y) + math.Abs(b.H)}
}

// span bounds the centres of every box interpolated between the two
// detections. An interpolated box is a convex combination of the two, so its
// centre lies in the rectangle the two centres span, up to the rounding of
// query.InterpBox's arithmetic, which the margin covers whatever the
// coordinates' size.
func (a pairEnd) span(b pairEnd) extent {
	mx, my := roundingMargin*(a.sx+b.sx), roundingMargin*(a.sy+b.sy)
	return extent{min(a.c.X, b.c.X) - mx, min(a.c.Y, b.c.Y) - my, max(a.c.X, b.c.X) + mx, max(a.c.Y, b.c.Y) + my}
}

// union is the smallest extent holding both; a NaN bound stays NaN, so a
// union with a NaN in it is apart from nothing either.
func (e extent) union(o extent) extent {
	return extent{min(e.minX, o.minX), min(e.minY, o.minY), max(e.maxX, o.maxX), max(e.maxY, o.maxY)}
}

// apart reports that two extents share no point. A NaN compares as not
// apart, so nothing is pruned or settled on the strength of one.
func (e extent) apart(o extent) bool {
	return e.maxX < o.minX || e.minX > o.maxX || e.maxY < o.minY || e.minY > o.maxY
}
