package proxy

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"otif/internal/costmodel"
	"otif/internal/geom"
)

func testWindowSet() *WindowSet {
	return NewWindowSet(640, 480, costmodel.YOLOPerPixel, 1.0, [][2]int{
		{128, 96}, {256, 192},
	})
}

func TestWindowSetAlwaysIncludesFullFrame(t *testing.T) {
	ws := testWindowSet()
	if ws.Sizes[0] != [2]int{640, 480} {
		t.Fatalf("first size %v, want full frame", ws.Sizes[0])
	}
	if len(ws.Sizes) != 3 {
		t.Errorf("sizes = %d, want 3", len(ws.Sizes))
	}
	// Sizes covering the whole frame are not duplicated.
	ws2 := NewWindowSet(640, 480, costmodel.YOLOPerPixel, 1.0, [][2]int{{640, 480}, {700, 500}})
	if len(ws2.Sizes) != 1 {
		t.Errorf("full-frame-sized candidates should be dropped, got %v", ws2.Sizes)
	}
}

func TestGroupEmptyGrid(t *testing.T) {
	ws := testWindowSet()
	g := NewGrid(640, 480)
	if wins := Group(g, ws); wins != nil {
		t.Errorf("empty grid should produce no windows, got %v", wins)
	}
	if EstCost(g, ws) != 0 {
		t.Error("empty grid cost should be 0")
	}
}

func TestGroupSingleCellUsesSmallestWindow(t *testing.T) {
	ws := testWindowSet()
	g := NewGrid(640, 480)
	g.Set(2, 2, true)
	wins := Group(g, ws)
	if len(wins) != 1 {
		t.Fatalf("windows = %v", wins)
	}
	if wins[0].W != 128 || wins[0].H != 96 {
		t.Errorf("window size %vx%v, want smallest (128x96)", wins[0].W, wins[0].H)
	}
}

func TestGroupCoversAllPositiveCells(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ws := testWindowSet()
		g := NewGrid(640, 480)
		for i := 0; i < rng.Intn(15)+1; i++ {
			g.Set(rng.Intn(g.W), rng.Intn(g.H), true)
		}
		wins := Group(g, ws)
		// Every positive cell must intersect some window (full-frame
		// fallback trivially covers).
		for cy := 0; cy < g.H; cy++ {
			for cx := 0; cx < g.W; cx++ {
				if !g.At(cx, cy) {
					continue
				}
				cell := CellRect(cx, cy).Clip(geom.Rect{W: 640, H: 480})
				covered := false
				for _, w := range wins {
					if w.Intersect(cell).Area() >= cell.Area()*0.5 {
						covered = true
						break
					}
				}
				if !covered {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGroupFallsBackToFullFrameWhenDense(t *testing.T) {
	ws := testWindowSet()
	g := NewGrid(640, 480)
	for i := range g.Pos {
		g.Pos[i] = true
	}
	wins := Group(g, ws)
	if len(wins) != 1 || wins[0].W != 640 || wins[0].H != 480 {
		t.Errorf("dense grid should fall back to full frame, got %v", wins)
	}
}

func TestGroupMergesAdjacentClusters(t *testing.T) {
	ws := testWindowSet()
	g := NewGrid(640, 480)
	// Two nearby cells (not connected) that fit a single small window:
	// merging is cheaper than two windows.
	g.Set(2, 2, true)
	g.Set(4, 2, true) // 64px apart, both fit in one 128x96 window
	wins := Group(g, ws)
	if len(wins) != 1 {
		t.Errorf("adjacent clusters should merge into one window, got %v", wins)
	}
}

func TestGroupKeepsDistantClustersSeparate(t *testing.T) {
	ws := testWindowSet()
	g := NewGrid(640, 480)
	g.Set(0, 0, true)
	g.Set(g.W-1, g.H-1, true)
	wins := Group(g, ws)
	if len(wins) != 2 {
		t.Errorf("distant clusters should stay separate, got %v", wins)
	}
	for _, w := range wins {
		if w.W != 128 {
			t.Errorf("expected smallest windows, got %v", w)
		}
	}
}

func TestGroupCostNeverExceedsFullFrame(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ws := testWindowSet()
		g := NewGrid(640, 480)
		for i := 0; i < rng.Intn(40); i++ {
			g.Set(rng.Intn(g.W), rng.Intn(g.H), true)
		}
		if g.Count() == 0 {
			return true
		}
		return EstCost(g, ws) <= ws.FullFrameCost()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestWindowsStayInsideFrame(t *testing.T) {
	ws := testWindowSet()
	bounds := geom.Rect{W: 640, H: 480}
	g := NewGrid(640, 480)
	g.Set(0, 0, true) // corner cell: window must clamp
	g.Set(g.W-1, 0, true)
	for _, w := range Group(g, ws) {
		if w.X < 0 || w.Y < 0 || w.MaxX() > bounds.W || w.MaxY() > bounds.H {
			t.Errorf("window %v outside frame", w)
		}
	}
}

func TestSelectWindowSizes(t *testing.T) {
	// Frames with small objects clustered top-left.
	var frames [][]geom.Rect
	for i := 0; i < 10; i++ {
		frames = append(frames, []geom.Rect{
			{X: 40, Y: 40, W: 50, H: 30},
			{X: 120, Y: 60, W: 50, H: 30},
		})
	}
	ws := SelectWindowSizes(640, 480, 3, costmodel.YOLOPerPixel, 1.0, frames)
	if len(ws.Sizes) < 2 || len(ws.Sizes) > 3 {
		t.Fatalf("selected %d sizes, want 2-3 (incl. full frame)", len(ws.Sizes))
	}
	// The selected small size must beat the full frame on these scenes.
	total := 0.0
	for _, boxes := range frames {
		total += EstCost(TruthGrid(640, 480, boxes), ws)
	}
	fullOnly := NewWindowSet(640, 480, costmodel.YOLOPerPixel, 1.0, nil)
	totalFull := 0.0
	for _, boxes := range frames {
		totalFull += EstCost(TruthGrid(640, 480, boxes), fullOnly)
	}
	if total >= totalFull {
		t.Errorf("selected sizes (%v) should reduce cost: %v vs %v", ws.Sizes, total, totalFull)
	}
}

func TestSelectWindowSizesRespectsK(t *testing.T) {
	var frames [][]geom.Rect
	for i := 0; i < 6; i++ {
		frames = append(frames, []geom.Rect{{X: float64(40 * i), Y: 40, W: 30, H: 30}})
	}
	for _, k := range []int{1, 2, 3, 4} {
		ws := SelectWindowSizes(640, 480, k, costmodel.YOLOPerPixel, 1.0, frames)
		if len(ws.Sizes) > k {
			t.Errorf("k=%d but %d sizes selected", k, len(ws.Sizes))
		}
	}
}

func TestSelectWindowSizesMonotoneInK(t *testing.T) {
	// More window sizes never increase the expected runtime.
	rng := rand.New(rand.NewSource(5))
	var frames [][]geom.Rect
	for i := 0; i < 12; i++ {
		var boxes []geom.Rect
		for j := 0; j < rng.Intn(4)+1; j++ {
			boxes = append(boxes, geom.Rect{
				X: rng.Float64() * 560, Y: rng.Float64() * 400,
				W: 50, H: 35,
			})
		}
		frames = append(frames, boxes)
	}
	var prev float64
	for i, k := range []int{1, 2, 3, 4} {
		ws := SelectWindowSizes(640, 480, k, costmodel.YOLOPerPixel, 1.0, frames)
		total := 0.0
		for _, boxes := range frames {
			total += EstCost(TruthGrid(640, 480, boxes), ws)
		}
		if i > 0 && total > prev+1e-9 {
			t.Errorf("k=%d cost %v exceeds k-1 cost %v", k, total, prev)
		}
		prev = total
	}
}

// scanClusters is the component search Grouper.Group replaced: it scans
// the whole grid for positive cells not yet visited, with a visited plane
// cleared on every call. Started from every positive cell in grid order,
// it is the oracle for the order Group's components come out in.
func scanClusters(g *Grid, ws *WindowSet) []cluster {
	visited := make([]bool, len(g.Pos))
	var out []cluster
	for start := range g.Pos {
		if !g.Pos[start] || visited[start] {
			continue
		}
		minX, minY, maxX, maxY := g.W, g.H, -1, -1
		stack := []int{start}
		visited[start] = true
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := p%g.W, p/g.W
			minX, minY = min(minX, x), min(minY, y)
			maxX, maxY = max(maxX, x), max(maxY, y)
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := x+dx, y+dy
					if nx < 0 || ny < 0 || nx >= g.W || ny >= g.H {
						continue
					}
					q := ny*g.W + nx
					if g.Pos[q] && !visited[q] {
						visited[q] = true
						stack = append(stack, q)
					}
				}
			}
		}
		out = append(out, ws.makeCluster(minX, minY, maxX, maxY))
	}
	return out
}

// positives lists g's positive cells in ascending order.
func positives(g *Grid) []int {
	var pos []int
	for i, on := range g.Pos {
		if on {
			pos = append(pos, i)
		}
	}
	return pos
}

// TestGrouperReuseMatchesGroup: one Grouper reused over grids of two
// geometries and many densities returns, bit for bit, the windows the
// whole-grid scan gives and the windows a fresh Group returns, so the
// positive-cell list starts components in the scan's order and nothing
// leaks from one call's scratch into the next. The grids come from
// ThresholdInto, whose list must be the grid's positive cells.
func TestGrouperReuseMatchesGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var gr Grouper
	for i := 0; i < 600; i++ {
		nomW, nomH := 640, 480
		if i%3 == 0 {
			nomW, nomH = 320, 240
		}
		ws := NewWindowSet(nomW, nomH, costmodel.YOLOPerPixel, 1.0, [][2]int{{128, 96}, {256, 192}})
		g := NewGrid(nomW, nomH)
		scores := make([]float64, len(g.Pos))
		for k := rng.Intn(60); k > 0; k-- {
			scores[rng.Intn(len(scores))] = rng.Float64()
		}
		pos := ThresholdInto(g, scores, 0.2+0.6*rng.Float64())
		if want := positives(g); !reflect.DeepEqual(pos, want) && len(want)+len(pos) > 0 {
			t.Fatalf("grid %d: ThresholdInto listed %v, positive cells are %v", i, pos, want)
		}
		want := ws.windows(scanClusters(g, ws))
		if got := gr.Group(g, pos, ws); !reflect.DeepEqual(got, want) {
			t.Fatalf("grid %d (%d positive cells): reused Grouper gave %v, the scan %v", i, g.Count(), got, want)
		}
		if got := Group(g, ws); !reflect.DeepEqual(got, want) {
			t.Fatalf("grid %d (%d positive cells): Group gave %v, the scan %v", i, g.Count(), got, want)
		}
	}
}

// TestGrouperStampWraps runs a Grouper across the wrap of its visit
// stamp: a plane left over from 2^32 calls ago must not read as visited.
func TestGrouperStampWraps(t *testing.T) {
	ws := testWindowSet()
	g := NewGrid(640, 480)
	g.Set(2, 2, true)
	g.Set(10, 8, true)
	pos := positives(g)
	want := Group(g, ws)
	var gr Grouper
	gr.Group(g, pos, ws)
	gr.gen = math.MaxUint32 - 1
	for i := 0; i < 4; i++ {
		if got := gr.Group(g, pos, ws); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d past stamp %d: %v, want %v", i, gr.gen, got, want)
		}
	}
}

// TestGroupAllocGate pins a warm Grouper to the windows it returns: one
// allocation for a grid with positive cells, whether it is covered by
// windows or falls back to the full frame, and none for an empty grid.
func TestGroupAllocGate(t *testing.T) {
	ws := testWindowSet()
	sparse, dense := NewGrid(640, 480), NewGrid(640, 480)
	sparse.Set(2, 2, true)
	sparse.Set(3, 3, true)
	sparse.Set(16, 12, true)
	for i := 0; i < len(dense.Pos); i += 3 {
		dense.Pos[i] = true
	}
	var gr Grouper
	for _, c := range []struct {
		name string
		g    *Grid
		want float64
	}{{"empty", NewGrid(640, 480), 0}, {"sparse", sparse, 1}, {"dense", dense, 1}} {
		pos := positives(c.g)
		gr.Group(c.g, pos, ws)
		if n := testing.AllocsPerRun(50, func() { gr.Group(c.g, pos, ws) }); n != c.want {
			t.Errorf("%s grid: a warm Grouper allocates %v times, want %v", c.name, n, c.want)
		}
	}
	if wins := gr.Group(sparse, positives(sparse), ws); len(wins) < 2 || wins[0].W == 640 {
		t.Errorf("sparse grid grouped into %v; want windows smaller than the frame", wins)
	}
	if wins := gr.Group(dense, positives(dense), ws); len(wins) != 1 || wins[0].W != 640 {
		t.Errorf("dense grid grouped into %v; want the full frame", wins)
	}
}
