package geom

// Path is an ordered polyline through frame space. Paths represent both the
// lanes that simulated objects travel along and the spatial trajectory of an
// extracted object track.
type Path []Point

// Length returns the total arc length of the path.
func (p Path) Length() float64 {
	var total float64
	for i := 1; i < len(p); i++ {
		total += p[i].Dist(p[i-1])
	}
	return total
}

// PointAt returns the point a fraction t in [0, 1] of the way along the path
// by arc length. Out-of-range t is clamped.
func (p Path) PointAt(t float64) Point {
	if len(p) == 0 {
		return Point{}
	}
	if len(p) == 1 || t <= 0 {
		return p[0]
	}
	if t >= 1 {
		return p[len(p)-1]
	}
	target := t * p.Length()
	var traveled float64
	for i := 1; i < len(p); i++ {
		seg := p[i].Dist(p[i-1])
		if traveled+seg >= target && seg > 0 {
			return p[i-1].Lerp(p[i], (target-traveled)/seg)
		}
		traveled += seg
	}
	return p[len(p)-1]
}

// Resample returns n points evenly spaced by arc length along the path.
// This is the P(s) operation from the paper's track-distance metric (§3.4).
func (p Path) Resample(n int) Path {
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

// PathDist returns the mean distance between corresponding evenly spaced
// points of two paths, using n sample points. This is the track distance
// d(s1, s2) from the paper (§3.4, N = 20 in the reference implementation).
func PathDist(a, b Path, n int) float64 {
	if n <= 0 {
		return 0
	}
	pa := a.Resample(n)
	pb := b.Resample(n)
	var total float64
	for i := 0; i < n; i++ {
		total += pa[i].Dist(pb[i])
	}
	return total / float64(n)
}
