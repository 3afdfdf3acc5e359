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
// Point i is PointAt(i/(n-1)) bit for bit, but the path is walked once:
// the targets grow with i, so each point resumes at the segment where the
// previous one was found, with the arc length travelled so far summed in
// the same order PointAt sums it.
func (p Path) Resample(n int) Path {
	if n <= 0 {
		return nil
	}
	out := make(Path, n)
	if len(p) == 0 {
		return out
	}
	out[0] = p[0]
	if n == 1 {
		return out
	}
	out[n-1] = p[len(p)-1]
	length := p.Length()
	k, traveled := 1, 0.0 // segment p[k-1]→p[k] starts traveled along the path
	for i := 1; i < n-1; i++ {
		target := float64(i) / float64(n-1) * length
		out[i] = p[len(p)-1]
		for ; k < len(p); k++ {
			seg := p[k].Dist(p[k-1])
			if traveled+seg >= target && seg > 0 {
				out[i] = p[k-1].Lerp(p[k], (target-traveled)/seg)
				break
			}
			traveled += seg
		}
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
