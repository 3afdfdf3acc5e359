package vidsim

import (
	"math"
	"math/rand"

	"otif/internal/obs"
	"otif/internal/video"
)

// metRenders counts frames rendered: every Render call, which is the work
// a frame-cache hit on a clip frame saves.
var metRenders = obs.Default.Counter("vidsim.renders")

// renderBackground builds the static background texture at sim resolution:
// a smooth bilinear interpolation of a coarse random grid (road/buildings
// structure) with fine per-pixel grain. It is computed once per world.
func (w *World) renderBackground(rng *rand.Rand) {
	sw, sh := w.Cfg.SimW, w.Cfg.SimH
	w.bg = make([]uint8, sw*sh)

	// Coarse structure grid.
	const cell = 24
	gw := sw/cell + 2
	gh := sh/cell + 2
	grid := make([]float64, gw*gh)
	lo, hi := w.Cfg.BGLow, w.Cfg.BGHigh
	if hi <= lo {
		lo, hi = 90, 150
	}
	for i := range grid {
		grid[i] = lo + rng.Float64()*(hi-lo)
	}
	grainSeed := rng.Int63()
	for y := 0; y < sh; y++ {
		fy := float64(y) / cell
		y0 := int(fy)
		ty := fy - float64(y0)
		for x := 0; x < sw; x++ {
			fx := float64(x) / cell
			x0 := int(fx)
			tx := fx - float64(x0)
			v00 := grid[y0*gw+x0]
			v10 := grid[y0*gw+x0+1]
			v01 := grid[(y0+1)*gw+x0]
			v11 := grid[(y0+1)*gw+x0+1]
			v := v00*(1-tx)*(1-ty) + v10*tx*(1-ty) + v01*(1-tx)*ty + v11*tx*ty
			// Static fine grain so the background is textured but
			// perfectly repeatable.
			v += (hashUnit(grainSeed, x, y, 0) - 0.5) * 8
			w.bg[y*sw+x] = clampU8(v)
		}
	}
}

// Render produces the frame at the given index: background + lighting
// flicker + objects + per-frame sensor noise. Rendering is deterministic
// in (world, frameIdx).
func (w *World) Render(frameIdx int) *video.Frame {
	metRenders.Inc()
	sw, sh := w.Cfg.SimW, w.Cfg.SimH
	f := video.NewFrame(sw, sh, w.Cfg.NomW, w.Cfg.NomH)

	// Lighting flicker: slow sinusoid plus per-frame jitter.
	flicker := w.Cfg.FlickerAmp * (math.Sin(float64(frameIdx)*0.05) +
		0.5*(hashUnit(1177, frameIdx, 0, 1)-0.5))

	noiseSeed := int64(frameIdx)*1_000_003 + 7
	noise := w.Cfg.NoiseStd
	for y := 0; y < sh; y++ {
		row := y * sw
		for x := 0; x < sw; x++ {
			v := float64(w.bg[row+x]) + flicker
			if noise > 0 {
				v += gaussApprox(noiseSeed, x, y) * noise
			}
			f.Pix[row+x] = clampU8(v)
		}
	}

	// Draw visible objects as filled ellipses with per-object contrast and
	// a little internal texture, scaled from nominal to sim coordinates.
	t := float64(frameIdx) / float64(w.Cfg.FPS)
	sx := float64(sw) / float64(w.Cfg.NomW)
	sy := float64(sh) / float64(w.Cfg.NomH)
	for i := range w.Objects {
		o := &w.Objects[i]
		box, ok := w.stateAt(o, t)
		if !ok {
			continue
		}
		cx := (box.X + box.W/2) * sx
		cy := (box.Y + box.H/2) * sy
		rx := math.Max(box.W/2*sx, 0.6)
		ry := math.Max(box.H/2*sy, 0.6)
		x0 := int(math.Max(0, cx-rx-1))
		x1 := int(math.Min(float64(sw-1), cx+rx+1))
		y0 := int(math.Max(0, cy-ry-1))
		y1 := int(math.Min(float64(sh-1), cy+ry+1))
		for py := y0; py <= y1; py++ {
			for px := x0; px <= x1; px++ {
				dx := (float64(px) + 0.5 - cx) / rx
				dy := (float64(py) + 0.5 - cy) / ry
				d2 := dx*dx + dy*dy
				if d2 > 1 {
					continue
				}
				// Soft edge and mild internal texture.
				edge := 1.0
				if d2 > 0.7 {
					edge = (1 - d2) / 0.3
				}
				tex := 1 + 0.25*math.Sin(o.phase*20+float64(px+py)*0.9)
				base := float64(f.Pix[py*sw+px])
				f.Pix[py*sw+px] = clampU8(base + o.Contrast*edge*tex)
			}
		}
	}
	return f
}

// hashUnit returns a deterministic pseudo-random value in [0, 1) from the
// given seed and coordinates, using a splitmix64-style mix.
func hashUnit(seed int64, a, b, c int) float64 {
	z := uint64(seed) ^ uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xC2B2AE3D27D4EB4F ^ uint64(c)*0x165667B19E3779F9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// gaussApprox returns an approximately standard normal deterministic sample
// for pixel (x, y) under the given seed (Irwin-Hall sum of 4 uniforms).
func gaussApprox(seed int64, x, y int) float64 {
	s := hashUnit(seed, x, y, 2) + hashUnit(seed, x, y, 3) +
		hashUnit(seed, x, y, 4) + hashUnit(seed, x, y, 5)
	return (s - 2) * math.Sqrt(3)
}

func clampU8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// Source adapts a World to the video.FrameSource interface.
type Source struct {
	World *World
}

// Frame implements video.FrameSource.
func (s *Source) Frame(idx int) *video.Frame { return s.World.Render(idx) }

// Len implements video.FrameSource.
func (s *Source) Len() int { return s.World.FrameCount() }

// FPS implements video.FrameSource.
func (s *Source) FPS() int { return s.World.Cfg.FPS }
