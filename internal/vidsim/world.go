// Package vidsim is the synthetic video substrate that stands in for the
// paper's seven real video datasets. A World deterministically spawns
// objects (cars, buses, pedestrians) on a dataset-specific network of lane
// paths, moves them with per-object speeds, braking events and occlusions,
// and renders greyscale frames with background texture, lighting flicker
// and sensor noise. Ground truth (the paper's "oracle pipeline") comes
// directly from the world state.
//
// The simulator is built so that the phenomena the paper's evaluation
// depends on are emergent rather than scripted: small or low-contrast
// objects disappear into sensor noise when the detector input resolution
// drops; objects travel large distances between frames at high sampling
// gaps; busy junction scenes contain objects in every frame (defeating
// frame-skipping proxies) while sparse highway scenes leave most of the
// frame empty (rewarding the segmentation proxy model).
package vidsim

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"otif/internal/geom"
)

// Category is an object class.
type Category string

// Object categories used by the simulated datasets.
const (
	Car        Category = "car"
	Bus        Category = "bus"
	Pedestrian Category = "pedestrian"
)

// Lane is one spawn path through the scene, in nominal coordinates.
type Lane struct {
	Name      string    // movement label, e.g. "N->S" (used by path queries)
	Path      geom.Path // trajectory in nominal coordinates
	SpawnRate float64   // expected spawns per second (Poisson)
	SpeedMin  float64   // nominal pixels per second
	SpeedMax  float64
	Mix       []CategoryWeight // category mixture; defaults to all cars
}

// CategoryWeight is one entry of a lane's category mixture.
type CategoryWeight struct {
	Cat    Category
	Weight float64
}

// SizeSpec gives the nominal pixel dimensions of a category's bounding box.
type SizeSpec struct {
	W, H   float64
	Jitter float64 // multiplicative size jitter, e.g. 0.2 for +-20%
}

// Config describes a simulated camera scene.
type Config struct {
	NomW, NomH int // nominal resolution (geometry, cost model)
	SimW, SimH int // stored pixel-buffer resolution
	FPS        int

	Lanes     []Lane
	Occluders []geom.Rect // regions where objects are invisible

	Sizes map[Category]SizeSpec

	// Rendering realism parameters.
	NoiseStd      float64 // sensor noise std-dev in grey levels
	FlickerAmp    float64 // per-frame global brightness flicker amplitude
	BGLow, BGHigh float64 // background texture intensity range
	ObjContrast   float64 // mean contrast of objects against background
	ContrastJit   float64 // per-object contrast jitter (fraction)

	// HardBrakeProb is the probability that a spawned car performs a hard
	// braking maneuver partway along its path (exercises the paper's
	// "find cars that decelerate at 5 m/s^2" exploratory query).
	HardBrakeProb float64

	// BGSeed seeds the background texture. It is a property of the
	// *camera*, not the clip: every clip sampled from the same camera
	// shares one background, which is what makes a background model
	// trained on some clips transfer to the others.
	BGSeed int64
}

// Object is one simulated scene object.
type Object struct {
	ID        int
	Cat       Category
	LaneIdx   int
	SpawnSec  float64 // time the object starts along its path
	Speed     float64 // base speed in nominal px/sec
	W, H      float64
	Contrast  float64 // signed intensity offset vs background
	BrakeFrac float64 // path fraction at which hard braking starts (<0: none)
	phase     float64 // texture phase for rendering
}

// World is a deterministic simulated scene over a fixed duration.
type World struct {
	Cfg      Config
	Duration float64 // seconds
	Objects  []Object

	bg      []uint8 // background at sim resolution
	pathLen []float64
	paths   *pathsMemo // Paths, computed once
}

// pathsMemo holds a world's object paths, filled by the first caller. It
// is held by pointer so that a World value carries no lock of its own.
type pathsMemo struct {
	once  sync.Once
	paths []ObjectPath
}

// GroundTruth is the true state of one visible object at some frame.
type GroundTruth struct {
	ID   int
	Cat  Category
	Box  geom.Rect // nominal coordinates
	Lane string    // lane (movement) name
}

// NewWorld creates a world of the given duration. All randomness derives
// from seed, so the same (cfg, duration, seed) triple always produces the
// same video and ground truth.
func NewWorld(cfg Config, durationSec float64, seed int64) *World {
	w := &World{Cfg: cfg, Duration: durationSec, paths: new(pathsMemo)}
	rng := rand.New(rand.NewSource(seed))
	w.pathLen = make([]float64, len(cfg.Lanes))
	for i, lane := range cfg.Lanes {
		w.pathLen[i] = lane.Path.Length()
	}
	w.spawnObjects(rng)
	w.renderBackground(rand.New(rand.NewSource(cfg.BGSeed + 1)))
	return w
}

// spawnObjects draws a Poisson process per lane. Objects may spawn before
// time zero so the scene starts already populated, as a clip sampled from
// the middle of a long video would be.
func (w *World) spawnObjects(rng *rand.Rand) {
	id := 0
	for li, lane := range w.Cfg.Lanes {
		if lane.SpawnRate <= 0 || w.pathLen[li] == 0 {
			continue
		}
		// Objects spawned up to maxTransit seconds before the clip can
		// still be visible during it.
		maxTransit := w.pathLen[li] / math.Max(lane.SpeedMin, 1)
		t := -maxTransit
		for {
			t += rng.ExpFloat64() / lane.SpawnRate
			if t > w.Duration {
				break
			}
			obj := Object{
				ID:       id,
				Cat:      pickCategory(lane.Mix, rng),
				LaneIdx:  li,
				SpawnSec: t,
				Speed:    lane.SpeedMin + rng.Float64()*(lane.SpeedMax-lane.SpeedMin),
				phase:    rng.Float64(),
			}
			size, ok := w.Cfg.Sizes[obj.Cat]
			if !ok {
				size = SizeSpec{W: 60, H: 30, Jitter: 0.2}
			}
			jit := 1 + (rng.Float64()*2-1)*size.Jitter
			obj.W = size.W * jit
			obj.H = size.H * jit
			contrast := w.Cfg.ObjContrast * (1 + (rng.Float64()*2-1)*w.Cfg.ContrastJit)
			if rng.Float64() < 0.5 {
				contrast = -contrast
			}
			obj.Contrast = contrast
			obj.BrakeFrac = -1
			if obj.Cat == Car && rng.Float64() < w.Cfg.HardBrakeProb {
				obj.BrakeFrac = 0.3 + rng.Float64()*0.4
			}
			w.Objects = append(w.Objects, obj)
			id++
		}
	}
	sort.Slice(w.Objects, func(i, j int) bool { return w.Objects[i].SpawnSec < w.Objects[j].SpawnSec })
	for i := range w.Objects {
		w.Objects[i].ID = i
	}
}

func pickCategory(mix []CategoryWeight, rng *rand.Rand) Category {
	if len(mix) == 0 {
		return Car
	}
	var total float64
	for _, m := range mix {
		total += m.Weight
	}
	r := rng.Float64() * total
	for _, m := range mix {
		if r < m.Weight {
			return m.Cat
		}
		r -= m.Weight
	}
	return mix[len(mix)-1].Cat
}

// brakeSlowdown is the speed multiplier after a hard brake completes.
const brakeSlowdown = 0.3

// brakeDuration is how long (seconds) the braking maneuver takes.
const brakeDuration = 1.0

// progress returns the arc-length distance the object has traveled along
// its lane path at time t.
func (w *World) progress(o *Object, t float64) float64 {
	dt := t - o.SpawnSec
	if dt < 0 {
		return -1
	}
	if o.BrakeFrac < 0 {
		return o.Speed * dt
	}
	// Distance at which braking begins.
	brakeDist := o.BrakeFrac * w.pathLen[o.LaneIdx]
	tBrake := brakeDist / o.Speed
	if dt <= tBrake {
		return o.Speed * dt
	}
	// Linear deceleration from Speed to brakeSlowdown*Speed over
	// brakeDuration seconds, then constant at the reduced speed.
	td := dt - tBrake
	vEnd := o.Speed * brakeSlowdown
	if td < brakeDuration {
		// distance under linear decel: v0*t - 0.5*a*t^2
		a := (o.Speed - vEnd) / brakeDuration
		return brakeDist + o.Speed*td - 0.5*a*td*td
	}
	rampDist := (o.Speed + vEnd) / 2 * brakeDuration
	return brakeDist + rampDist + vEnd*(td-brakeDuration)
}

// stateAt returns the object's bounding box at time t and whether it is
// visible (on-path, inside the frame, and not occluded).
func (w *World) stateAt(o *Object, t float64) (geom.Rect, bool) {
	dist := w.progress(o, t)
	if dist < 0 {
		return geom.Rect{}, false
	}
	plen := w.pathLen[o.LaneIdx]
	if plen == 0 || dist > plen {
		return geom.Rect{}, false
	}
	frac := dist / plen
	center := w.Cfg.Lanes[o.LaneIdx].Path.PointAt(frac)
	box := geom.Rect{X: center.X - o.W/2, Y: center.Y - o.H/2, W: o.W, H: o.H}
	bounds := geom.Rect{W: float64(w.Cfg.NomW), H: float64(w.Cfg.NomH)}
	vis := box.Intersect(bounds)
	// Require a meaningful visible fraction: objects straddling the frame
	// edge with little area inside do not count as visible.
	if vis.Area() < 0.35*box.Area() {
		return geom.Rect{}, false
	}
	for _, occ := range w.Cfg.Occluders {
		if occ.Contains(center) {
			return geom.Rect{}, false
		}
	}
	return box, true
}

// VisibleAt returns ground truth for all objects visible at frame idx.
func (w *World) VisibleAt(frameIdx int) []GroundTruth {
	t := float64(frameIdx) / float64(w.Cfg.FPS)
	var out []GroundTruth
	for i := range w.Objects {
		o := &w.Objects[i]
		if box, ok := w.stateAt(o, t); ok {
			out = append(out, GroundTruth{
				ID:   o.ID,
				Cat:  o.Cat,
				Box:  box,
				Lane: w.Cfg.Lanes[o.LaneIdx].Name,
			})
		}
	}
	return out
}

// ObjectPath is one object's ground truth over the world's frames: its id
// and category and the centre of its box on every frame it is visible, in
// frame order.
type ObjectPath struct {
	ID      int
	Cat     Category
	Centers geom.Path
}

// Paths regroups VisibleAt over the world's frames object by object: the
// path of every object visible on at least one frame, in object order,
// each centre the one VisibleAt's box has. The paths are computed once, by
// the first caller, and shared, so callers must not modify them.
func (w *World) Paths() []ObjectPath {
	w.paths.once.Do(func() {
		for i := range w.Objects {
			o := &w.Objects[i]
			var centers geom.Path
			for f := 0; f < w.FrameCount(); f++ {
				if box, ok := w.stateAt(o, float64(f)/float64(w.Cfg.FPS)); ok {
					centers = append(centers, box.Center())
				}
			}
			if centers != nil {
				w.paths.paths = append(w.paths.paths, ObjectPath{ID: o.ID, Cat: o.Cat, Centers: centers})
			}
		}
	})
	return w.paths.paths
}

// FrameCount returns the number of frames in the world's duration.
func (w *World) FrameCount() int {
	return int(w.Duration * float64(w.Cfg.FPS))
}
