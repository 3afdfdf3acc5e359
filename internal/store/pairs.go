package store

import "math"

// pairColumn is one sealed segment's pair-distance column for one
// category: per clip, the centre distance of every pair of category tracks
// visible together, on every frame — exactly the float64 values the pair
// walk (sweep.pairs) compares with CoOccurrences' dist, NaN left out. A
// clip's distances are grouped by bucket (pairBuckets), so counting the
// ones that are at most dist reads one bucket, not the clip: that count is
// CoOccurrences' answer for any dist, the same comparison on the same
// numbers, the order of which a count does not depend on, and a NaN never
// counts.
type pairColumn struct {
	dists   []float64     // every clip's distances, end to end, each clip's in bucket order
	off     []int         // clip c's are dists[off[c]:off[c+1]]
	buckets []pairBuckets // clip c's bucket layout
}

// pairBuckets is one clip's bucket layout. A distance d lies in bucket
// of(d), which never decreases as d grows: 0 for d <= 0, -Inf and NaN,
// int(d·scale) above, the last bucket from there on, +Inf included. So
// every distance in a bucket below of(dist) is less than dist and every
// distance in a bucket above it is greater, for any dist that is not NaN;
// only bucket of(dist) itself has to be compared, and the count is exact.
// Bucket k is the clip's distances [starts[k], starts[k+1]).
type pairBuckets struct {
	scale, last float64 // last is the last bucket's index
	starts      []int32 // one per bucket and one past the last
}

// Bucket counts: a clip gets a bucket for about every pairsPerBucket of its
// distances, at most maxPairBuckets, over [0, the frame's diagonal]. On the
// query-mix archive (about 50k distances a clip) that is 1,024 buckets of
// about 50 distances; the 4 bytes a bucket add 1 % to a column there, and
// at most 1.6 % anywhere.
const (
	pairsPerBucket = 32
	maxPairBuckets = 1024
)

// newPairBuckets returns the layout of a clip whose buckets span [0, diag]
// over starts, one entry a bucket and one more (pairBucketCount).
func newPairBuckets(starts []int32, diag float64) pairBuckets {
	scale := float64(len(starts)-1) / diag
	if !(scale > 0 && scale <= math.MaxFloat64) { // no usable diagonal: any positive scale is exact
		scale = 1
	}
	return pairBuckets{scale: scale, last: float64(len(starts) - 2), starts: starts}
}

// pairBucketCount is how many buckets a clip of n distances gets.
func pairBucketCount(n int) int {
	return min(max(n/pairsPerBucket, 1), maxPairBuckets)
}

// of is the bucket of d (see pairBuckets).
func (b *pairBuckets) of(d float64) int {
	switch v := d * b.scale; {
	case v >= b.last:
		return int(b.last)
	case v > 0:
		return int(v)
	}
	return 0
}

// group regroups a clip's distances, in walk order in dists, bucket by
// bucket: a counting sort with no comparison of distances, one pass to
// count each bucket's size in starts and one to scatter into scratch (at
// least as long as dists), whose order is copied back. A NaN distance is
// dropped. It sets starts to where each bucket begins and returns how
// many distances it kept, which are now the front of dists.
func (b *pairBuckets) group(dists, scratch []float64) int {
	starts := b.starts
	clear(starts)
	for _, d := range dists { // starts[k+1] counts bucket k
		if d == d {
			starts[b.of(d)+1]++
		}
	}
	for k := 1; k < len(starts); k++ { // starts[k] is where bucket k begins
		starts[k] += starts[k-1]
	}
	for _, d := range dists { // starts[k] moves on to where bucket k+1 begins
		if d == d {
			k := b.of(d)
			scratch[starts[k]] = d
			starts[k]++
		}
	}
	last := len(starts) - 1
	copy(starts[1:last], starts[:last-1])
	starts[0] = 0
	return copy(dists, scratch[:starts[last]])
}

// count is how many of a clip's distances, laid out by group, are at most
// dist: the buckets below dist's whole, and dist's own compared one by one.
// A NaN dist compares false with every distance of bucket 0 and counts
// none.
func (b *pairBuckets) count(dists []float64, dist float64) int {
	k := b.of(dist)
	n := int(b.starts[k])
	for _, d := range dists[b.starts[k]:b.starts[k+1]] {
		if d <= dist {
			n++
		}
	}
	return n
}

// count answers CoOccurrences(cat, dist) from the column.
func (p *pairColumn) count(dist float64) []int {
	metQueries.Inc()
	out := make([]int, len(p.buckets))
	for c := range out {
		out[c] = p.buckets[c].count(p.dists[p.off[c]:p.off[c+1]], dist)
	}
	return out
}

// planPairColumn plans the category's column: what it would be charged
// and how to build it. A count-only sweep (pairCount) sizes it from the
// interval index, so a refusal interpolates nothing and a build allocates
// the distances once, at their exact size, and every clip's bucket starts
// in one slice. A build then walks each clip (sweep.pairs) into its
// stretch of the column and regroups it by bucket (pairBuckets.group).
func (sg *Segment) planPairColumn(cat string) (int64, func() *pairColumn) {
	col := &pairColumn{off: make([]int, len(sg.clips)+1), buckets: make([]pairBuckets, len(sg.clips))}
	count := sg.newSweep(false)
	most, nstarts := 0, 0
	for i := range sg.clips {
		count.reset(&sg.clips[i], cat, nil)
		n := count.pairCount(sg.ctx.Frames)
		col.off[i+1] = col.off[i] + n
		most = max(most, n)
		nstarts += pairBucketCount(n) + 1
	}
	count.flush()
	if most > math.MaxInt32 { // a clip's starts are int32; no cache takes a column this size
		return math.MaxInt64, nil
	}
	starts := make([]int32, nstarts)
	diag := math.Hypot(float64(sg.ctx.NomW), float64(sg.ctx.NomH))
	for i := range sg.clips {
		nb := pairBucketCount(col.off[i+1] - col.off[i])
		col.buckets[i] = newPairBuckets(starts[:nb+1:nb+1], diag)
		starts = starts[nb+1:]
	}
	n := col.off[len(sg.clips)]
	return resultBytes(col) + 8*int64(n), func() *pairColumn {
		dists := make([]float64, n)
		scratch := make([]float64, most)
		walk := sg.newSweep(true)
		for i := range sg.clips {
			walk.dists = dists[col.off[i]:col.off[i]] // empty, with room for the clip's walk
			walk.reset(&sg.clips[i], cat, nil)
			walk.pairs(sg.ctx.Frames, 0)
			col.off[i+1] = col.off[i] + col.buckets[i].group(walk.dists, scratch)
		}
		walk.flush()
		col.dists = dists[:col.off[len(sg.clips)]]
		return col
	}
}

// pairCount is how many distances sweep.pairs measures on one clip: per
// run of frames with n tracks visible, n(n-1)/2 a frame. It reads only the
// interval index; the sweep must not walk.
func (sw *sweep) pairCount(frames int) int {
	total := 0
	for f := 0; f < frames; {
		n, next := sw.Advance(f)
		end := min(next, frames)
		total += (end - f) * (n * (n - 1) / 2)
		f = end
	}
	return total
}

// cachedPairColumn returns a sealed segment's pair-distance column for cat
// through the result cache's one gate for derived columns (cachedColumn),
// or nil when CoOccurrences should walk the sweep.
func (sh *Sharded) cachedPairColumn(sg *Segment, cat string) *pairColumn {
	return cachedColumn(sh, sg, pairsKey(cat), func() (int64, func() *pairColumn) { return sg.planPairColumn(cat) })
}
