package tuner

import (
	"math"
	"testing"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/geom"
	"otif/internal/proxy"
	"otif/internal/video"
)

// validationScores re-reads the caching phase's frames — the validation
// clips at theta_best's gap, in clip order — and returns every proxy
// model's full score vector for each: [model][frame][cell].
func validationScores(sys *core.System) [][][]float64 {
	scores := make([][][]float64, len(sys.Proxies))
	acct := costmodel.NewAccountant()
	detector := sys.Detector(sys.Best, acct)
	for _, ct := range sys.DS.Val {
		reader := video.NewReader(ct.Clip, sys.Best.Gap, detector.Cfg.Width, detector.Cfg.Height, acct)
		for {
			frame, _ := reader.Next()
			if frame == nil {
				break
			}
			for mi, m := range sys.Proxies {
				scores[mi] = append(scores[mi], m.Score(frame, sys.Background, acct))
			}
		}
	}
	return scores
}

// referenceEstimate is proxyEstimate before the cache kept only positive
// cells: ThresholdInto over each frame's full scores, then Group over the
// whole grid.
func referenceEstimate(sys *core.System, scores [][]float64, boxes [][]geom.Rect, key proxyEstKey, ws *proxy.WindowSet) proxyEstVal {
	m := sys.Proxies[key.model]
	var totalCost float64
	covered, totalDets := 0, 0
	grid := proxy.NewGrid(sys.DS.Cfg.NomW, sys.DS.Cfg.NomH)
	for fi := range scores {
		proxy.ThresholdInto(grid, scores[fi], key.thresh)
		wins := proxy.Group(grid, ws)
		totalCost += costmodel.ProxyCost(m.ResW, m.ResH)
		for _, w := range wins {
			idx, ok := ws.IndexOf(int(w.W), int(w.H))
			if !ok {
				totalCost += ws.FullFrameCost()
				continue
			}
			totalCost += ws.Costs[idx]
		}
		for _, b := range boxes[fi] {
			totalDets++
			for _, w := range wins {
				if w.Intersect(b).Area() >= 0.5*b.Area() {
					covered++
					break
				}
			}
		}
	}
	v := proxyEstVal{est: totalCost / float64(len(scores)), recall: 1}
	if totalDets > 0 {
		v.recall = float64(covered) / float64(totalDets)
	}
	return v
}

// TestProxyEstimatesMatchFullGrid checks every estimate of the proxy grid
// — each model and ladder threshold, at all 14 detector settings — against
// ThresholdInto plus a whole-grid Group over the frames' full scores, bit
// for bit.
func TestProxyEstimatesMatchFullGrid(t *testing.T) {
	sys, metric := trainedSystem(t)
	opts := DefaultOptions()
	c := newCache(sys, metric, opts)
	scores := validationScores(sys)
	if len(scores) == 0 || len(scores[0]) != c.frameCount || c.frameCount == 0 {
		t.Fatalf("re-read %d models' frames, the cache holds %d frames", len(scores), c.frameCount)
	}
	settings, positive := 0, 0
	for _, arch := range archs {
		for _, scale := range core.DetScaleLadder {
			settings++
			ws := proxy.NewWindowSet(sys.DS.Cfg.NomW, sys.DS.Cfg.NomH, arch.PerPixelCost(), scale, sys.WindowSizes)
			for mi := range sys.Proxies {
				for _, th := range core.ProxyThreshLadder {
					key := proxyEstKey{model: mi, thresh: th, arch: arch, scale: scale}
					got := c.proxyEstimate(sys, key, ws)
					want := referenceEstimate(sys, scores[mi], c.bestBoxes, key, ws)
					if math.Float64bits(got.est) != math.Float64bits(want.est) || math.Float64bits(got.recall) != math.Float64bits(want.recall) {
						t.Fatalf("%+v: estimate %+v, full grid %+v", key, got, want)
					}
				}
			}
		}
	}
	for mi := range c.proxyCells {
		for _, cells := range c.proxyCells[mi] {
			positive += len(cells)
		}
	}
	if settings != 14 || positive == 0 {
		t.Fatalf("%d detector settings, %d cached cells: the comparison proved little", settings, positive)
	}
}

// BenchmarkProxyEstimate computes one detector setting's proxy grid (every
// model and ladder threshold) from a built cache, on one goroutine.
func BenchmarkProxyEstimate(b *testing.B) {
	sys, metric := trainedSystem(b)
	c := newCache(sys, metric, DefaultOptions())
	ws := proxy.NewWindowSet(sys.DS.Cfg.NomW, sys.DS.Cfg.NomH, sys.Best.Arch.PerPixelCost(), sys.Best.DetScale, sys.WindowSizes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for mi := range sys.Proxies {
			for _, th := range core.ProxyThreshLadder {
				c.proxyEstimate(sys, proxyEstKey{model: mi, thresh: th, arch: sys.Best.Arch, scale: sys.Best.DetScale}, ws)
			}
		}
	}
}
