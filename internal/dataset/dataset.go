// Package dataset defines the seven simulated video datasets used in the
// evaluation, mirroring the paper's benchmark: Caldot1 and Caldot2 (highway
// cameras), Tokyo and Warsaw (busy traffic junctions), UAV (aerial drone),
// Amsterdam (riverside plaza) and Jackson (town junction). Each dataset is
// a scene configuration (lane network, spawn rates, object sizes, render
// realism) from which training, validation and test sets of clips are
// sampled, exactly as in the paper's workflow (§3.1): the sets are disjoint
// by construction because every clip is an independent seeded world.
package dataset

import (
	"fmt"

	"otif/internal/geom"
	"otif/internal/video"
	"otif/internal/vidsim"
)

// ClipTruth pairs a video clip with the simulated world that produced it,
// giving oracle access to ground truth.
type ClipTruth struct {
	Clip  *video.Clip
	World *vidsim.World
}

// Truth returns ground truth for frame idx of the clip.
func (c *ClipTruth) Truth(idx int) []vidsim.GroundTruth { return c.World.VisibleAt(idx) }

// SetSpec controls how large the sampled clip sets are. The paper uses 60
// one-minute clips per set; tests and benchmarks use smaller sets and the
// harness scales reported runtimes to paper-sized sets via EquivScale.
type SetSpec struct {
	Clips       int     // clips per set
	ClipSeconds float64 // duration of each clip
}

// PaperSpec is the set size used in the paper (60 one-minute clips).
var PaperSpec = SetSpec{Clips: 60, ClipSeconds: 60}

// DefaultSpec is the scaled-down set size used by the benchmark harness.
var DefaultSpec = SetSpec{Clips: 8, ClipSeconds: 8}

// EquivScale returns the factor that converts a runtime over one set under
// this spec into the equivalent runtime over a paper-sized one-hour set.
func (s SetSpec) EquivScale() float64 {
	return PaperSpec.ClipSeconds * float64(PaperSpec.Clips) / (s.ClipSeconds * float64(s.Clips))
}

// Instance is a fully sampled dataset: configuration plus the three clip
// sets.
type Instance struct {
	Name        string
	Cfg         vidsim.Config
	FixedCamera bool // whether endpoint refinement applies (§3.4)
	Spec        SetSpec
	Train       []*ClipTruth
	Val         []*ClipTruth
	Test        []*ClipTruth

	// seed is the sampling seed Build was called with, retained so Camera
	// can derive clip seeds disjoint from the train/val/test ranges.
	seed int64
}

// Camera returns a deterministic, unbounded clip generator simulating one
// live camera pointed at the dataset's scene: clip i is an independently
// seeded world of clipSeconds duration (the instance's spec duration when
// clipSeconds <= 0). Camera feeds are the input side of streaming ingest —
// footage that keeps arriving rather than a fixed sampled set. Seeds are
// disjoint from the train/val/test ranges and between cameras (for
// i < 1000 clips per camera), so streamed clips never replay training
// footage, and the same (cam, i) always yields bit-identical frames —
// which is what makes streamed extraction reproducible and testable.
func (in *Instance) Camera(cam int, clipSeconds float64) func(i int) *ClipTruth {
	if clipSeconds <= 0 {
		clipSeconds = in.Spec.ClipSeconds
	}
	// Train/val/test occupy seed*1000 + {100, 200, 300} + i with
	// i < Spec.Clips; cameras start at +1000 with a 1000-clip stride.
	base := in.seed*1000 + 1000 + int64(cam)*1000
	cfg := in.Cfg
	return func(i int) *ClipTruth {
		w := vidsim.NewWorld(cfg, clipSeconds, base+int64(i))
		return &ClipTruth{
			Clip:  &video.Clip{ID: i, Source: video.NewCachedSource(&vidsim.Source{World: w})},
			World: w,
		}
	}
}

// Names lists the seven datasets in the paper's order.
func Names() []string {
	return []string{"caldot1", "caldot2", "tokyo", "uav", "warsaw", "amsterdam", "jackson"}
}

// Build samples a dataset instance by name with the given set spec. The
// seed determines all clip content; train/val/test use disjoint seed
// ranges.
func Build(name string, spec SetSpec, seed int64) (*Instance, error) {
	cfg, fixed, err := configFor(name)
	if err != nil {
		return nil, err
	}
	in := &Instance{Name: name, Cfg: cfg, FixedCamera: fixed, Spec: spec, seed: seed}
	in.Train = sampleSet(cfg, spec, seed*1000+100)
	in.Val = sampleSet(cfg, spec, seed*1000+200)
	in.Test = sampleSet(cfg, spec, seed*1000+300)
	return in, nil
}

func sampleSet(cfg vidsim.Config, spec SetSpec, seedBase int64) []*ClipTruth {
	out := make([]*ClipTruth, spec.Clips)
	for i := 0; i < spec.Clips; i++ {
		w := vidsim.NewWorld(cfg, spec.ClipSeconds, seedBase+int64(i))
		out[i] = &ClipTruth{
			Clip:  &video.Clip{ID: i, Source: video.NewCachedSource(&vidsim.Source{World: w})},
			World: w,
		}
	}
	return out
}

func configFor(name string) (vidsim.Config, bool, error) {
	cfg, fixed, err := baseConfigFor(name)
	if err != nil {
		return cfg, fixed, err
	}
	// The background is a property of the camera: every clip of a dataset
	// shares it, so detectors' background models transfer across clips.
	var bgSeed int64
	for _, r := range name {
		bgSeed = bgSeed*131 + int64(r)
	}
	cfg.BGSeed = bgSeed
	return cfg, fixed, nil
}

func baseConfigFor(name string) (vidsim.Config, bool, error) {
	switch name {
	case "caldot1":
		return caldotConfig(0.22, 52, 26), true, nil
	case "caldot2":
		return caldotConfig(0.35, 48, 24), true, nil
	case "tokyo":
		return junctionConfig(1280, 720, 25, 0.30, 10), true, nil
	case "uav":
		return uavConfig(), false, nil
	case "warsaw":
		return junctionConfig(1280, 720, 25, 0.40, 8), true, nil
	case "amsterdam":
		return plazaConfig(), true, nil
	case "jackson":
		return jacksonConfig(), true, nil
	default:
		return vidsim.Config{}, false, fmt.Errorf("dataset: unknown dataset %q", name)
	}
}

// pt is shorthand for building lane paths.
func pt(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }

// caldotConfig models the California DOT highway cameras: 720x480 nominal,
// 15 fps, four horizontal highway lanes crossing the full frame. Objects
// are spread across the frame width, so the segmentation proxy model can
// rarely carve out empty regions — matching the paper's finding that the
// proxy helps little on Caldot1 (Table 4).
func caldotConfig(rate, carW, carH float64) vidsim.Config {
	_ = carH
	cfg := vidsim.Config{
		NomW: 720, NomH: 480, SimW: 240, SimH: 160, FPS: 15,
		Sizes: map[vidsim.Category]vidsim.SizeSpec{
			vidsim.Car: {W: carW, H: carW / 2, Jitter: 0.25},
			vidsim.Bus: {W: carW * 1.9, H: carW * 0.75, Jitter: 0.15},
		},
		NoiseStd: 5, FlickerAmp: 3, BGLow: 95, BGHigh: 150,
		ObjContrast: 65, ContrastJit: 0.45,
		HardBrakeProb: 0.06,
	}
	mix := []vidsim.CategoryWeight{{Cat: vidsim.Car, Weight: 0.92}, {Cat: vidsim.Bus, Weight: 0.08}}
	laneY := []float64{170, 215, 265, 310}
	for i, y := range laneY {
		dir := "E->W"
		path := geom.Path{pt(760, y), pt(-40, y)}
		if i >= 2 {
			dir = "W->E"
			path = geom.Path{pt(-40, y), pt(760, y)}
		}
		cfg.Lanes = append(cfg.Lanes, vidsim.Lane{
			Name: dir, Path: path, SpawnRate: rate,
			SpeedMin: 180, SpeedMax: 300, Mix: mix,
		})
	}
	return cfg
}

// junctionConfig models a busy city traffic junction (Tokyo, Warsaw):
// 1280x720 nominal, 25 fps, with movements turning through a central
// junction. Activity is concentrated around the junction center, leaving
// the frame margins mostly empty — which is where the segmentation proxy
// model earns its speedup (Table 4: 1.5x on Warsaw).
func junctionConfig(w, h, fps int, rate float64, movements int) vidsim.Config {
	cfg := vidsim.Config{
		NomW: w, NomH: h, SimW: 320, SimH: 180, FPS: fps,
		Sizes: map[vidsim.Category]vidsim.SizeSpec{
			vidsim.Car:        {W: 78, H: 40, Jitter: 0.25},
			vidsim.Bus:        {W: 150, H: 60, Jitter: 0.15},
			vidsim.Pedestrian: {W: 22, H: 44, Jitter: 0.3},
		},
		NoiseStd: 5, FlickerAmp: 3, BGLow: 90, BGHigh: 155,
		ObjContrast: 60, ContrastJit: 0.45,
		HardBrakeProb: 0.05,
		Occluders:     []geom.Rect{{X: float64(w)*0.46 - 40, Y: 60, W: 70, H: 55}},
	}
	cx, cy := float64(w)/2, float64(h)/2
	// Approach roads meet in the center occupying the middle ~45% of the
	// frame; margins stay empty.
	n, s := pt(cx, float64(h)*0.16), pt(cx, float64(h)*0.84)
	e, wp := pt(float64(w)*0.78, cy), pt(float64(w)*0.22, cy)
	c := pt(cx, cy)
	all := []vidsim.Lane{
		{Name: "N->S", Path: geom.Path{n, c, s}},
		{Name: "S->N", Path: geom.Path{s, c, n}},
		{Name: "E->W", Path: geom.Path{e, c, wp}},
		{Name: "W->E", Path: geom.Path{wp, c, e}},
		{Name: "N->E", Path: geom.Path{n, c, e}},
		{Name: "N->W", Path: geom.Path{n, c, wp}},
		{Name: "S->E", Path: geom.Path{s, c, e}},
		{Name: "S->W", Path: geom.Path{s, c, wp}},
		{Name: "E->N", Path: geom.Path{e, c, n}},
		{Name: "W->S", Path: geom.Path{wp, c, s}},
	}
	if movements > len(all) {
		movements = len(all)
	}
	mix := []vidsim.CategoryWeight{{Cat: vidsim.Car, Weight: 0.88}, {Cat: vidsim.Bus, Weight: 0.12}}
	for i := 0; i < movements; i++ {
		l := all[i]
		l.SpawnRate = rate
		l.SpeedMin, l.SpeedMax = 140, 260
		l.Mix = mix
		cfg.Lanes = append(cfg.Lanes, l)
	}
	return cfg
}

// uavConfig models the aerial drone dataset: 1280x720 nominal at only
// 5 fps, with small objects on diagonal tracks. The camera is not fixed,
// so endpoint refinement does not apply (§3.4).
func uavConfig() vidsim.Config {
	cfg := vidsim.Config{
		NomW: 1280, NomH: 720, SimW: 320, SimH: 180, FPS: 5,
		Sizes: map[vidsim.Category]vidsim.SizeSpec{
			vidsim.Car: {W: 42, H: 24, Jitter: 0.3},
		},
		NoiseStd: 6, FlickerAmp: 4, BGLow: 85, BGHigh: 160,
		ObjContrast: 55, ContrastJit: 0.5,
		HardBrakeProb: 0.04,
	}
	paths := []struct {
		name string
		path geom.Path
	}{
		{"NW->SE", geom.Path{pt(-30, 100), pt(640, 360), pt(1310, 650)}},
		{"SE->NW", geom.Path{pt(1310, 650), pt(640, 360), pt(-30, 100)}},
		{"SW->NE", geom.Path{pt(-30, 620), pt(640, 380), pt(1310, 90)}},
		{"NE->SW", geom.Path{pt(1310, 90), pt(640, 380), pt(-30, 620)}},
	}
	for _, p := range paths {
		cfg.Lanes = append(cfg.Lanes, vidsim.Lane{
			Name: p.name, Path: p.path, SpawnRate: 0.18,
			SpeedMin: 100, SpeedMax: 220,
		})
	}
	return cfg
}

// plazaConfig models the Amsterdam riverside plaza: 1280x720 at 30 fps,
// mixed pedestrians and cars at moderate density, used for track count
// queries.
func plazaConfig() vidsim.Config {
	cfg := vidsim.Config{
		NomW: 1280, NomH: 720, SimW: 320, SimH: 180, FPS: 30,
		Sizes: map[vidsim.Category]vidsim.SizeSpec{
			vidsim.Car:        {W: 85, H: 44, Jitter: 0.25},
			vidsim.Pedestrian: {W: 24, H: 48, Jitter: 0.3},
		},
		NoiseStd: 5, FlickerAmp: 3, BGLow: 95, BGHigh: 150,
		ObjContrast: 60, ContrastJit: 0.4,
		HardBrakeProb: 0.03,
	}
	carMix := []vidsim.CategoryWeight{{Cat: vidsim.Car, Weight: 1}}
	pedMix := []vidsim.CategoryWeight{{Cat: vidsim.Pedestrian, Weight: 1}}
	cfg.Lanes = []vidsim.Lane{
		{Name: "quay-E", Path: geom.Path{pt(-40, 560), pt(1320, 540)}, SpawnRate: 0.16, SpeedMin: 120, SpeedMax: 220, Mix: carMix},
		{Name: "quay-W", Path: geom.Path{pt(1320, 610), pt(-40, 630)}, SpawnRate: 0.16, SpeedMin: 120, SpeedMax: 220, Mix: carMix},
		{Name: "walk-1", Path: geom.Path{pt(-20, 300), pt(640, 340), pt(1300, 290)}, SpawnRate: 0.12, SpeedMin: 35, SpeedMax: 75, Mix: pedMix},
		{Name: "walk-2", Path: geom.Path{pt(500, 740), pt(520, 200)}, SpawnRate: 0.10, SpeedMin: 35, SpeedMax: 75, Mix: pedMix},
	}
	return cfg
}

// jacksonConfig models the Jackson town junction: 1280x720 at 30 fps with
// a simple two-road crossing, used for track count queries.
func jacksonConfig() vidsim.Config {
	cfg := vidsim.Config{
		NomW: 1280, NomH: 720, SimW: 320, SimH: 180, FPS: 30,
		Sizes: map[vidsim.Category]vidsim.SizeSpec{
			vidsim.Car: {W: 80, H: 42, Jitter: 0.25},
			vidsim.Bus: {W: 155, H: 62, Jitter: 0.15},
		},
		NoiseStd: 5, FlickerAmp: 3, BGLow: 92, BGHigh: 152,
		ObjContrast: 62, ContrastJit: 0.45,
		HardBrakeProb: 0.05,
	}
	mix := []vidsim.CategoryWeight{{Cat: vidsim.Car, Weight: 0.9}, {Cat: vidsim.Bus, Weight: 0.1}}
	cfg.Lanes = []vidsim.Lane{
		{Name: "E->W", Path: geom.Path{pt(1320, 330), pt(-40, 350)}, SpawnRate: 0.25, SpeedMin: 150, SpeedMax: 270, Mix: mix},
		{Name: "W->E", Path: geom.Path{pt(-40, 420), pt(1320, 400)}, SpawnRate: 0.25, SpeedMin: 150, SpeedMax: 270, Mix: mix},
		{Name: "N->S", Path: geom.Path{pt(660, -30), pt(640, 750)}, SpawnRate: 0.12, SpeedMin: 130, SpeedMax: 240, Mix: mix},
	}
	return cfg
}
