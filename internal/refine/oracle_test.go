package refine

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"otif/internal/geom"
)

// refineReference is RefineEndpoints as it was before the track was
// resampled once per call: a map-deduplicated candidate set from the
// map-deduplicated Index lookups, geom.PathDist per candidate (resampling
// the track and the center every time), and sort.Slice everywhere. It is
// the oracle for the one-resample version.
func refineReference(r *Refiner, track geom.Path) (start, end geom.Point, ok bool) {
	if len(r.Clusters) == 0 || len(track) == 0 {
		return geom.Point{}, geom.Point{}, false
	}
	near := func(p geom.Point) []int {
		idx := r.Idx
		rad := int(math.Ceil(r.SearchRadius / idx.cellSize))
		cx := int(math.Floor(p.X / idx.cellSize))
		cy := int(math.Floor(p.Y / idx.cellSize))
		seen := map[int]bool{}
		var out []int
		for dy := -rad; dy <= rad; dy++ {
			for dx := -rad; dx <= rad; dx++ {
				for _, ci := range idx.cells[[2]int{cx + dx, cy + dy}] {
					if !seen[ci] {
						seen[ci] = true
						out = append(out, ci)
					}
				}
			}
		}
		return out
	}
	cand := map[int]bool{}
	for _, ci := range near(track[0]) {
		cand[ci] = true
	}
	for _, ci := range near(track[len(track)-1]) {
		cand[ci] = true
	}
	if len(cand) == 0 {
		return geom.Point{}, geom.Point{}, false
	}
	type scored struct {
		ci   int
		dist float64
	}
	var list []scored
	for ci := range cand {
		list = append(list, scored{ci, geom.PathDist(track, r.Clusters[ci].Center, PathSamples)})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].dist != list[j].dist {
			return list[i].dist < list[j].dist
		}
		return list[i].ci < list[j].ci
	})
	cut := len(list)
	for i, s := range list {
		if s.dist > r.MaxDist {
			cut = i
			break
		}
	}
	list = list[:cut]
	if len(list) == 0 {
		return geom.Point{}, geom.Point{}, false
	}
	if len(list) > r.K {
		list = list[:r.K]
	}
	var starts, ends []geom.Point
	var weights []float64
	for _, s := range list {
		c := r.Clusters[s.ci]
		starts = append(starts, c.Center[0])
		ends = append(ends, c.Center[len(c.Center)-1])
		weights = append(weights, float64(c.Size))
	}
	median := func(ps []geom.Point, coord func(geom.Point) float64) float64 {
		type pair struct{ v, w float64 }
		pairs := make([]pair, len(ps))
		var total float64
		for i, p := range ps {
			pairs[i] = pair{coord(p), weights[i]}
			total += weights[i]
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
		var cum float64
		for _, p := range pairs {
			cum += p.w
			if cum >= total/2 {
				return p.v
			}
		}
		return pairs[len(pairs)-1].v
	}
	x := func(p geom.Point) float64 { return p.X }
	y := func(p geom.Point) float64 { return p.Y }
	return geom.Point{X: median(starts, x), Y: median(starts, y)},
		geom.Point{X: median(ends, x), Y: median(ends, y)}, true
}

// randomScene builds a refiner over nClusters centers drawn around a few
// lanes. Endpoints are snapped to a coarse grid so that the weighted
// medians see ties, and sizes vary so the ties carry different weights.
func randomScene(rng *rand.Rand, nClusters int) *Refiner {
	lanes := [][2]geom.Point{
		{{X: 0, Y: 100}, {X: 600, Y: 120}},
		{{X: 600, Y: 300}, {X: 0, Y: 280}},
		{{X: 300, Y: 0}, {X: 320, Y: 400}},
	}
	clusters := make([]*Cluster, nClusters)
	for i := range clusters {
		// Some clusters share a center, so distances tie exactly and the
		// cluster-index tie break decides which of them the K cut keeps.
		if i > 0 && rng.Intn(3) == 0 {
			clusters[i] = &Cluster{Center: clusters[rng.Intn(i)].Center, Size: 1 + rng.Intn(6)}
			continue
		}
		lane := lanes[rng.Intn(len(lanes))]
		a, b := lane[0], lane[1]
		a.X += math.Round(rng.NormFloat64()*2) * 10
		a.Y += math.Round(rng.NormFloat64()*2) * 10
		b.X += math.Round(rng.NormFloat64()*2) * 10
		b.Y += math.Round(rng.NormFloat64()*2) * 10
		// Like a DBSCAN center (a pointwise mean of resampled members), the
		// points are not evenly spaced by arc length.
		raw := geom.Path{a, a.Lerp(b, 0.3+0.1*rng.Float64()), b}
		ts := make([]float64, PathSamples)
		for k := 1; k < PathSamples-1; k++ {
			ts[k] = rng.Float64()
		}
		ts[PathSamples-1] = 1
		sort.Float64s(ts)
		center := make(geom.Path, PathSamples)
		for k, t := range ts {
			center[k] = raw.PointAt(t)
		}
		clusters[i] = &Cluster{Center: center, Size: 1 + rng.Intn(6)}
	}
	return FromClusters(clusters, DefaultDBSCANOptions())
}

// randomTrack is a partial, jittered traversal of one of the scene's
// lanes (or its reverse), sometimes with repeated points.
func randomTrack(rng *rand.Rand, r *Refiner) geom.Path {
	c := r.Clusters[rng.Intn(len(r.Clusters))].Center
	from, to := rng.Float64()*0.4, 0.6+rng.Float64()*0.4
	if rng.Intn(5) == 0 {
		from, to = to, from
	}
	n := 1 + rng.Intn(8)
	track := make(geom.Path, 0, n)
	for k := 0; k < n; k++ {
		t := from
		if n > 1 {
			t = from + (to-from)*float64(k)/float64(n-1)
		}
		p := c.PointAt(t)
		p.X += rng.NormFloat64() * 8
		p.Y += rng.NormFloat64() * 8
		track = append(track, p)
		if rng.Intn(6) == 0 {
			track = append(track, p)
		}
	}
	return track
}

func TestRefineEndpointsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bits := func(p geom.Point) [2]uint64 {
		return [2]uint64{math.Float64bits(p.X), math.Float64bits(p.Y)}
	}
	refined := 0
	for scene := 0; scene < 40; scene++ {
		r := randomScene(rng, 1+rng.Intn(60))
		for trial := 0; trial < 50; trial++ {
			track := randomTrack(rng, r)
			ws, we, wok := refineReference(r, track)
			gs, ge, gok := r.RefineEndpoints(track)
			if gok != wok || bits(gs) != bits(ws) || bits(ge) != bits(we) {
				t.Fatalf("scene %d trial %d: got (%v, %v, %v), reference (%v, %v, %v)", scene, trial, gs, ge, gok, ws, we, wok)
			}
			if gok {
				refined++
			}
		}
	}
	if refined == 0 {
		t.Fatal("no track was refined; the comparison proved nothing")
	}
}

// TestRefineEndpointsAllocGate pins a call's allocations to a count that
// does not depend on how many clusters pass near the track.
func TestRefineEndpointsAllocGate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	track := geom.Path{{X: 150, Y: 110}, {X: 300, Y: 112}, {X: 450, Y: 115}}
	lane := func(n int) *Refiner {
		clusters := make([]*Cluster, n)
		for i := range clusters {
			dy := rng.NormFloat64() * 5
			raw := geom.Path{{X: 0, Y: 100 + dy}, {X: 600, Y: 120 + dy}}
			clusters[i] = &Cluster{Center: raw.Resample(PathSamples), Size: 1 + i%4}
		}
		return FromClusters(clusters, DefaultDBSCANOptions())
	}
	var allocs []float64
	for _, n := range []int{1, 3, 12, 80} {
		r := lane(n)
		if _, _, ok := r.RefineEndpoints(track); !ok {
			t.Fatalf("%d clusters: the track was not refined", n)
		}
		allocs = append(allocs, testing.AllocsPerRun(50, func() { r.RefineEndpoints(track) }))
	}
	for i := range allocs {
		if allocs[i] != allocs[0] {
			t.Fatalf("allocations per call by candidate count 1, 3, 12, 80: %v, want all equal", allocs)
		}
	}
}
