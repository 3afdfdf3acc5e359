package proxy

import (
	"math"
	"sync"

	"otif/internal/costmodel"
	"otif/internal/geom"
)

// WindowSet is the fixed set of window sizes W at which the detector is
// initialized (§3.3). Sizes are in nominal pixels; the set always contains
// the full-frame size so that whole-frame detection remains available. The
// cost of running the detector at each size is precomputed from the cost
// model so est(R) can be evaluated cheaply.
type WindowSet struct {
	NomW, NomH int
	Sizes      [][2]int  // includes the full-frame size
	Costs      []float64 // detector execution time per size

	// index maps a window size to its position in Sizes, built once at
	// construction so per-window cost lookups are O(1) instead of a scan.
	index map[[2]int]int
}

// NewWindowSet builds a WindowSet for the given frame size, detector
// per-pixel cost, and detector input scale (detectorRes / nominal, so a
// window's cost reflects the resolution the detector actually runs at).
func NewWindowSet(nomW, nomH int, perPixel, detScale float64, sizes [][2]int) *WindowSet {
	ws := &WindowSet{NomW: nomW, NomH: nomH}
	// Ensure the full frame is present and first.
	all := [][2]int{{nomW, nomH}}
	for _, s := range sizes {
		if s[0] >= nomW && s[1] >= nomH {
			continue
		}
		all = append(all, s)
	}
	ws.Sizes = all
	ws.Costs = make([]float64, len(all))
	ws.index = make(map[[2]int]int, len(all))
	for i, s := range all {
		w := int(float64(s[0])*detScale + 0.5)
		h := int(float64(s[1])*detScale + 0.5)
		ws.Costs[i] = costmodel.DetectCost(perPixel, w, h)
		if _, ok := ws.index[s]; !ok {
			ws.index[s] = i
		}
	}
	return ws
}

// IndexOf returns the position of the w x h window size within the set
// and whether the size is present. Windows produced by Group are always
// present; callers estimating costs for externally constructed rectangles
// must handle the not-found case explicitly.
func (ws *WindowSet) IndexOf(w, h int) (int, bool) {
	i, ok := ws.index[[2]int{w, h}]
	return i, ok
}

// FullFrameCost returns the cost of one whole-frame detector invocation.
func (ws *WindowSet) FullFrameCost() float64 { return ws.Costs[0] }

// bestFit returns the index of the cheapest window size that covers a
// wCells x hCells cell extent, or -1 if only the full frame fits.
func (ws *WindowSet) bestFit(wPx, hPx float64) int {
	best := -1
	for i := 1; i < len(ws.Sizes); i++ {
		if float64(ws.Sizes[i][0]) >= wPx && float64(ws.Sizes[i][1]) >= hPx {
			if best == -1 || ws.Costs[i] < ws.Costs[best] {
				best = i
			}
		}
	}
	return best
}

// cluster is a group of positive cells tracked by its cell bounding box.
type cluster struct {
	minX, minY, maxX, maxY int
	sizeIdx                int // window size index covering the cluster, -1 if only full frame
	cost                   float64
}

func (ws *WindowSet) makeCluster(minX, minY, maxX, maxY int) cluster {
	c := cluster{minX: minX, minY: minY, maxX: maxX, maxY: maxY}
	wPx := float64((maxX - minX + 1) * CellSize)
	hPx := float64((maxY - minY + 1) * CellSize)
	c.sizeIdx = ws.bestFit(wPx, hPx)
	if c.sizeIdx == -1 {
		c.sizeIdx = 0
		c.cost = ws.Costs[0]
	} else {
		c.cost = ws.Costs[c.sizeIdx]
	}
	return c
}

func mergeBounds(a, b cluster) (int, int, int, int) {
	return min(a.minX, b.minX), min(a.minY, b.minY),
		max(a.maxX, b.maxX), max(a.maxY, b.maxY)
}

// Group covers the positive cells of g with rectangular windows from ws
// using the paper's density-based greedy agglomerative clustering: start
// with one cluster per connected component of positive cells, repeatedly
// merge the pair whose merged window would be cheaper than the two
// separate windows, and stop when no merge decreases est(R). If the final
// plan costs at least as much as a single full-frame invocation, fall back
// to the full frame.
//
// The returned windows are in nominal coordinates, sized exactly at one of
// ws.Sizes, clamped inside the frame, and cover every positive cell.
func Group(g *Grid, ws *WindowSet) []geom.Rect {
	gr := groupers.Get().(*Grouper)
	defer groupers.Put(gr)
	gr.pos = gr.pos[:0]
	for i, on := range g.Pos {
		if on {
			gr.pos = append(gr.pos, i)
		}
	}
	return gr.Group(g, gr.pos, ws)
}

// groupers lends Group a warm Grouper: window-size selection groups every
// training frame once per candidate size set.
var groupers = sync.Pool{New: func() any { return new(Grouper) }}

// Grouper is Group with its working storage (the visited plane, the
// search stack and the cluster list) kept between calls, so a caller that
// groups frame after frame allocates only the windows it is returned. The
// zero value is ready to use; a Grouper is owned by one goroutine.
type Grouper struct {
	visited  []uint32 // cell -> the call that visited it; see gen
	gen      uint32   // this call's stamp, so no call clears the plane
	stack    []int
	clusters []cluster
	pos      []int // the package-level Group's positive-cell list
}

// Group is the package-level Group for a grid whose positive cells are
// pos, in ascending order — the list ThresholdInto returns. Components
// are started only from pos, in its order, which is the order a scan of
// the whole grid would meet them in, so the windows are Group's. The cost
// of a call follows the positive cells, not the size of the grid.
func (gr *Grouper) Group(g *Grid, pos []int, ws *WindowSet) []geom.Rect {
	return ws.windows(gr.connectedCellClusters(g, pos, ws))
}

// windows merges the connected-component clusters greedily and places a
// window for each cluster left (the full frame if that is cheaper). It
// reorders and shortens clusters in place.
func (ws *WindowSet) windows(clusters []cluster) []geom.Rect {
	if len(clusters) == 0 {
		return nil
	}

	// Greedy agglomerative merging.
	for {
		bestI, bestJ := -1, -1
		bestGain := 0.0
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				minX, minY, maxX, maxY := mergeBounds(clusters[i], clusters[j])
				merged := ws.makeCluster(minX, minY, maxX, maxY)
				gain := clusters[i].cost + clusters[j].cost - merged.cost
				if gain > bestGain+1e-12 {
					bestGain = gain
					bestI, bestJ = i, j
				}
			}
		}
		if bestI == -1 {
			break
		}
		minX, minY, maxX, maxY := mergeBounds(clusters[bestI], clusters[bestJ])
		merged := ws.makeCluster(minX, minY, maxX, maxY)
		clusters[bestI] = merged
		clusters = append(clusters[:bestJ], clusters[bestJ+1:]...)
	}

	var total float64
	for _, c := range clusters {
		total += c.cost
	}
	if total >= ws.FullFrameCost() {
		return []geom.Rect{{W: float64(ws.NomW), H: float64(ws.NomH)}}
	}

	out := make([]geom.Rect, 0, len(clusters))
	for _, c := range clusters {
		out = append(out, ws.placeWindow(c))
	}
	return out
}

// placeWindow positions the cluster's window size centered on the cluster
// cell bounds, clamped into the frame.
func (ws *WindowSet) placeWindow(c cluster) geom.Rect {
	size := ws.Sizes[c.sizeIdx]
	if c.sizeIdx == 0 {
		return geom.Rect{W: float64(ws.NomW), H: float64(ws.NomH)}
	}
	cx := float64(c.minX+c.maxX+1) / 2 * CellSize
	cy := float64(c.minY+c.maxY+1) / 2 * CellSize
	x := cx - float64(size[0])/2
	y := cy - float64(size[1])/2
	x = math.Max(0, math.Min(x, float64(ws.NomW-size[0])))
	y = math.Max(0, math.Min(y, float64(ws.NomH-size[1])))
	return geom.Rect{X: x, Y: y, W: float64(size[0]), H: float64(size[1])}
}

// EstCost returns est(R): the total detector cost of the window plan that
// Group would produce for g (including the proxy's full-frame fallback).
// A nil/empty grid costs nothing.
func EstCost(g *Grid, ws *WindowSet) float64 {
	wins := Group(g, ws)
	var total float64
	for _, w := range wins {
		idx, ok := ws.IndexOf(int(w.W), int(w.H))
		if !ok {
			// Group only emits sizes drawn from ws; bill an unknown size
			// conservatively at the full-frame cost.
			total += ws.FullFrameCost()
			continue
		}
		total += ws.Costs[idx]
	}
	return total
}

// connectedCellClusters builds one cluster per 8-connected component of
// positive cells, starting a component at each cell of pos not yet
// visited. The returned slice is gr's scratch, valid until its next call.
func (gr *Grouper) connectedCellClusters(g *Grid, pos []int, ws *WindowSet) []cluster {
	if cap(gr.visited) < len(g.Pos) {
		gr.visited = make([]uint32, len(g.Pos))
	}
	visited := gr.visited[:len(g.Pos)]
	gr.gen++
	if gr.gen == 0 { // the stamp wrapped: forget every earlier call
		clear(gr.visited[:cap(gr.visited)])
		gr.gen = 1
	}
	gen := gr.gen
	out := gr.clusters[:0]
	stack := gr.stack
	for _, start := range pos {
		if visited[start] == gen {
			continue
		}
		minX, minY, maxX, maxY := g.W, g.H, -1, -1
		stack = append(stack[:0], start)
		visited[start] = gen
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := p%g.W, p/g.W
			minX = min(minX, x)
			minY = min(minY, y)
			maxX = max(maxX, x)
			maxY = max(maxY, y)
			// The 3x3 neighborhood clipped to the grid. A component's
			// bounds do not depend on the order its cells are visited in.
			x0, x1 := max(x-1, 0), min(x+1, g.W-1)
			for ny := max(y-1, 0); ny <= min(y+1, g.H-1); ny++ {
				for q := ny*g.W + x0; q <= ny*g.W+x1; q++ {
					if g.Pos[q] && visited[q] != gen {
						visited[q] = gen
						stack = append(stack, q)
					}
				}
			}
		}
		out = append(out, ws.makeCluster(minX, minY, maxX, maxY))
	}
	gr.stack = stack
	gr.clusters = out
	return out
}
