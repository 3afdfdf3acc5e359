package refine

import (
	"math/rand"
	"testing"

	"otif/internal/geom"
)

// BenchmarkRefineEndpoints refines 16 reduced-rate tracks against the
// clusters of a four-lane junction's training tracks.
func BenchmarkRefineEndpoints(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	lanes := [][2]geom.Point{
		{{X: 0, Y: 100}, {X: 600, Y: 120}},
		{{X: 600, Y: 300}, {X: 0, Y: 280}},
		{{X: 300, Y: 0}, {X: 320, Y: 400}},
		{{X: 0, Y: 380}, {X: 600, Y: 20}},
	}
	var train []geom.Path
	for _, l := range lanes {
		for shift := 0.0; shift < 120; shift += 40 {
			a, c := l[0], l[1]
			a.Y += shift
			c.Y += shift
			train = append(train, lanePaths(rng, 6, a, c)...)
		}
	}
	r := NewRefiner(train, DBSCANOptions{Eps: 20, MinPts: 2})
	var tracks []geom.Path
	for i := 0; i < 16; i++ {
		l := lanes[i%len(lanes)]
		a, c := l[0].Lerp(l[1], 0.25), l[0].Lerp(l[1], 0.75)
		tracks = append(tracks, geom.Path{a, a.Lerp(c, 0.5), c})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range tracks {
			r.RefineEndpoints(tr)
		}
	}
}
