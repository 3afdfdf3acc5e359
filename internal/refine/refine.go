// Package refine implements OTIF's track endpoint refinement (§3.4). When
// video is tracked at a large sampling gap, the first and last detections
// of a track are offset from where the object actually entered and left the
// scene, which breaks spatial predicates such as turning-movement counts.
// Instead of decoding extra frames (Miris' approach, too expensive when
// extracting all tracks), OTIF clusters the training-set tracks S* with
// DBSCAN, indexes the cluster centers spatially, and extends each extracted
// track's start and end to the size-weighted median of the endpoints of its
// k = 10 nearest clusters.
package refine

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"otif/internal/geom"
)

// PathSamples is the number of evenly spaced points used to compare tracks
// (N = 20 in the paper).
const PathSamples = 20

// Cluster is a DBSCAN cluster of training tracks represented by its center
// path (the pointwise mean of the member tracks' resampled paths).
type Cluster struct {
	Center geom.Path // PathSamples points
	Size   int       // number of member tracks
}

// DBSCANOptions configures track clustering.
type DBSCANOptions struct {
	// Eps is the neighborhood radius under the mean point-distance metric
	// (nominal pixels).
	Eps float64
	// MinPts is the minimum neighborhood size for a core track.
	MinPts int
}

// DefaultDBSCANOptions returns clustering defaults suited to nominal
// coordinates on the simulated datasets.
func DefaultDBSCANOptions() DBSCANOptions { return DBSCANOptions{Eps: 60, MinPts: 2} }

// DBSCAN clusters the tracks (as paths) under the mean corresponding-point
// distance d(s1, s2) and returns one Cluster per dense group. Noise tracks
// (not density-reachable from any core track) are discarded: they are
// mostly clip-boundary-truncated fragments whose endpoints would poison
// the refinement medians.
func DBSCAN(paths []geom.Path, opts DBSCANOptions) []*Cluster {
	n := len(paths)
	if n == 0 {
		return nil
	}
	resampled := make([]geom.Path, n)
	for i, p := range paths {
		resampled[i] = p.Resample(PathSamples)
	}
	dist := func(i, j int) float64 { return meanDist(resampled[i], resampled[j]) }

	const (
		unvisited = 0
		noise     = -1
	)
	labels := make([]int, n) // 0 unvisited, -1 noise, >0 cluster id
	nextID := 1

	neighborsOf := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if j != i && dist(i, j) <= opts.Eps {
				out = append(out, j)
			}
		}
		return out
	}

	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		neigh := neighborsOf(i)
		if len(neigh)+1 < opts.MinPts {
			labels[i] = noise
			continue
		}
		id := nextID
		nextID++
		labels[i] = id
		queue := append([]int{}, neigh...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if labels[j] == noise {
				labels[j] = id // border point
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = id
			jNeigh := neighborsOf(j)
			if len(jNeigh)+1 >= opts.MinPts {
				queue = append(queue, jNeigh...)
			}
		}
	}

	// Build clusters; noise points are dropped.
	byID := map[int][]int{}
	for i, l := range labels {
		if l != noise {
			byID[l] = append(byID[l], i)
		}
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	clusters := make([]*Cluster, 0, len(ids))
	for _, id := range ids {
		members := byID[id]
		center := make(geom.Path, PathSamples)
		for k := 0; k < PathSamples; k++ {
			var sx, sy float64
			for _, m := range members {
				sx += resampled[m][k].X
				sy += resampled[m][k].Y
			}
			center[k] = geom.Point{X: sx / float64(len(members)), Y: sy / float64(len(members))}
		}
		clusters = append(clusters, &Cluster{Center: center, Size: len(members)})
	}
	return clusters
}

// Validate reports why a cluster read from a file cannot inform
// refinement, or nil: DBSCAN writes centers of exactly PathSamples finite
// points for groups of at least one track.
func (c *Cluster) Validate() error {
	if c.Size < 1 {
		return fmt.Errorf("size %d, want at least 1", c.Size)
	}
	if len(c.Center) != PathSamples {
		return fmt.Errorf("center has %d points, want %d", len(c.Center), PathSamples)
	}
	for i, p := range c.Center {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("center point %d is %v, not finite", i, p)
		}
	}
	return nil
}

// Index is a uniform-grid spatial index over cluster centers, used to find
// clusters passing near a track's first and last detections without
// computing distances to every cluster.
type Index struct {
	clusters []*Cluster
	cellSize float64
	cells    map[[2]int][]int // cell -> cluster indices whose center passes through
}

// NewIndex builds the spatial index with the given grid cell size (nominal
// pixels).
func NewIndex(clusters []*Cluster, cellSize float64) *Index {
	idx := &Index{clusters: clusters, cellSize: cellSize, cells: map[[2]int][]int{}}
	for ci, c := range clusters {
		for _, p := range c.Center {
			cell := [2]int{int(math.Floor(p.X / cellSize)), int(math.Floor(p.Y / cellSize))}
			// A cluster is listed once per cell. Clusters are indexed one
			// after another, so a cell already holding ci holds it last.
			if l := idx.cells[cell]; len(l) == 0 || l[len(l)-1] != ci {
				idx.cells[cell] = append(l, ci)
			}
		}
	}
	return idx
}

// Near returns the indices of clusters whose center passes within roughly
// radius of p (via grid cells; a superset filter, not an exact test).
func (idx *Index) Near(p geom.Point, radius float64) []int {
	return idx.appendNear(nil, make([]bool, len(idx.clusters)), p, radius)
}

// appendNear appends to dst the clusters near p, in Near's order, that
// seen (one flag per cluster) does not hold yet, and marks them in seen.
func (idx *Index) appendNear(dst []int, seen []bool, p geom.Point, radius float64) []int {
	r := int(math.Ceil(radius / idx.cellSize))
	cx := int(math.Floor(p.X / idx.cellSize))
	cy := int(math.Floor(p.Y / idx.cellSize))
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			for _, ci := range idx.cells[[2]int{cx + dx, cy + dy}] {
				if !seen[ci] {
					seen[ci] = true
					dst = append(dst, ci)
				}
			}
		}
	}
	return dst
}

// Refiner refines track endpoints against an indexed cluster set. Build
// one with NewRefiner or FromClusters.
type Refiner struct {
	Clusters []*Cluster
	Idx      *Index
	// K is the number of nearest clusters used (k = 10 in the paper).
	K int
	// SearchRadius bounds the index lookup around the track endpoints.
	SearchRadius float64
	// MaxDist is the largest mean path distance at which a cluster may
	// inform refinement.
	MaxDist float64

	// centers[i] is Clusters[i].Center resampled to PathSamples points,
	// the form every track is compared with.
	centers []geom.Path
}

// NewRefiner clusters the training tracks and builds the index.
func NewRefiner(trainPaths []geom.Path, opts DBSCANOptions) *Refiner {
	return FromClusters(DBSCAN(trainPaths, opts), opts)
}

// FromClusters builds the refiner over clusters that DBSCAN produced with
// opts: it indexes the centers and resamples each once.
func FromClusters(clusters []*Cluster, opts DBSCANOptions) *Refiner {
	r := &Refiner{
		Clusters:     clusters,
		Idx:          NewIndex(clusters, 64),
		K:            10,
		SearchRadius: 160,
		MaxDist:      2.5 * opts.Eps,
		centers:      make([]geom.Path, len(clusters)),
	}
	for i, c := range clusters {
		r.centers[i] = c.Center.Resample(PathSamples)
	}
	return r
}

// meanDist is geom.PathDist over two paths already resampled to the same
// number of points.
func meanDist(a, b geom.Path) float64 {
	var total float64
	for i := range a {
		total += a[i].Dist(b[i])
	}
	return total / float64(len(a))
}

// RefineEndpoints returns the estimated true start and end points for a
// track captured at a reduced rate: the size-weighted median of the start
// and end points of the K nearest clusters (by mean path distance) among
// clusters passing near the track's endpoints. ok is false when no cluster
// is close enough to inform refinement. The track is resampled once per
// call and compared with every candidate's pre-resampled center, so the
// allocations of a call do not grow with the number of candidates.
func (r *Refiner) RefineEndpoints(track geom.Path) (start, end geom.Point, ok bool) {
	if len(r.Clusters) == 0 || len(track) == 0 {
		return geom.Point{}, geom.Point{}, false
	}
	seen := make([]bool, len(r.Clusters))
	cand := r.Idx.appendNear(make([]int, 0, len(r.Clusters)), seen, track[0], r.SearchRadius)
	cand = r.Idx.appendNear(cand, seen, track[len(track)-1], r.SearchRadius)
	if len(cand) == 0 {
		return geom.Point{}, geom.Point{}, false
	}
	type scored struct {
		ci   int
		dist float64
	}
	resampled := track.Resample(PathSamples)
	scoredList := make([]scored, len(cand))
	for i, ci := range cand {
		scoredList[i] = scored{ci, meanDist(resampled, r.centers[ci])}
	}
	// Ties break on cluster index, so the order is total and the K-nearest
	// cut does not depend on the order candidates were found in.
	slices.SortFunc(scoredList, func(a, b scored) int {
		switch {
		case a.dist < b.dist, a.dist == b.dist && a.ci < b.ci:
			return -1
		case b.dist < a.dist, a.dist == b.dist && b.ci < a.ci:
			return 1
		}
		return 0
	})
	// Keep only clusters genuinely similar to the track: a cluster whose
	// path runs in the opposite direction (or through a different part of
	// the scene) has a large mean corresponding-point distance and must
	// not contribute to the endpoint median.
	cut := len(scoredList)
	for i, s := range scoredList {
		if s.dist > r.MaxDist {
			cut = i
			break
		}
	}
	scoredList = scoredList[:cut]
	if len(scoredList) == 0 {
		return geom.Point{}, geom.Point{}, false
	}
	if len(scoredList) > r.K {
		scoredList = scoredList[:r.K]
	}

	starts := make([]geom.Point, len(scoredList))
	ends := make([]geom.Point, len(scoredList))
	weights := make([]float64, len(scoredList))
	for i, s := range scoredList {
		c := r.Clusters[s.ci]
		starts[i] = c.Center[0]
		ends[i] = c.Center[len(c.Center)-1]
		weights[i] = float64(c.Size)
	}
	start = geom.Point{
		X: weightedMedian(xs(starts), weights),
		Y: weightedMedian(ys(starts), weights),
	}
	end = geom.Point{
		X: weightedMedian(xs(ends), weights),
		Y: weightedMedian(ys(ends), weights),
	}
	return start, end, true
}

func xs(ps []geom.Point) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.X
	}
	return out
}

func ys(ps []geom.Point) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.Y
	}
	return out
}

// weightedMedian returns the weighted median of vals.
func weightedMedian(vals, weights []float64) float64 {
	type pair struct{ v, w float64 }
	ps := make([]pair, len(vals))
	var total float64
	for i := range vals {
		ps[i] = pair{vals[i], weights[i]}
		total += weights[i]
	}
	slices.SortFunc(ps, func(a, b pair) int {
		switch {
		case a.v < b.v:
			return -1
		case b.v < a.v:
			return 1
		}
		return 0
	})
	var cum float64
	for _, p := range ps {
		cum += p.w
		if cum >= total/2 {
			return p.v
		}
	}
	if len(ps) == 0 {
		return 0
	}
	return ps[len(ps)-1].v
}
