package core

import (
	"math/rand"

	"otif/internal/costmodel"
	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/proxy"
	"otif/internal/refine"
	"otif/internal/track"
	"otif/internal/video"
	"otif/internal/vidsim"
)

// Simulated pre-processing cost constants (seconds), calibrated to the
// paper's Figure 6 cost breakdown: object detector training dominates
// pre-processing, proxy model training takes under ten minutes for all five
// models, and window-size selection takes ~3 seconds.
const (
	// TrainDetectorCost is the simulated cost of fine-tuning the object
	// detector (background model estimation plays that role here).
	TrainDetectorCost = 540
	// WindowSelectCost is the simulated cost of computing the fixed
	// window-size set W.
	WindowSelectCost = 3
)

// System holds a dataset instance together with every trained artifact the
// pipeline needs: the detector background model, the five proxy models, the
// window-size set W, the recurrent and pairwise tracking models, and the
// endpoint refiner built from the training tracks S*.
type System struct {
	DS         *dataset.Instance
	Classifier detect.SizeClassifier

	Background  *detect.BackgroundModel
	Proxies     []*proxy.Model
	WindowSizes [][2]int // chosen W (beyond the implicit full frame)

	Recurrent *track.RecurrentModel
	Pair      *track.PairModel
	Refiner   *refine.Refiner

	// Best is the best-accuracy configuration theta_best selected on the
	// validation set; its outputs label the proxy and tracker training.
	Best Config

	// SStar holds the theta_best tracks per training clip (S*).
	SStar [][]*track.Track

	// Acct accumulates pre-processing (training/tuning) cost.
	Acct *costmodel.Accountant
}

// NewSystem creates a system for the dataset and estimates the detector
// background model from the training set (the pipeline's stand-in for
// detector fine-tuning; see DESIGN.md).
func NewSystem(ds *dataset.Instance) *System {
	s := &System{
		DS:         ds,
		Classifier: ClassifierFor(ds),
		Acct:       costmodel.NewAccountant(),
	}
	s.Background = trainBackground(ds)
	s.Acct.Add(costmodel.OpTrainDet, TrainDetectorCost)
	return s
}

// ClassifierFor derives the size-based category classifier from the
// dataset's object size specification.
func ClassifierFor(ds *dataset.Instance) detect.SizeClassifier {
	var c detect.SizeClassifier
	if ped, ok := ds.Cfg.Sizes[vidsim.Pedestrian]; ok {
		c.PedMaxArea = ped.W * ped.H * 1.8
	}
	if bus, ok := ds.Cfg.Sizes[vidsim.Bus]; ok {
		car := ds.Cfg.Sizes[vidsim.Car]
		// Midpoint between typical car and bus areas.
		c.BusMinArea = (car.W*car.H + bus.W*bus.H) / 2
	}
	return c
}

// trainBackground estimates the per-pixel median background over frames
// sampled across the training clips.
func trainBackground(ds *dataset.Instance) *detect.BackgroundModel {
	const perClip = 5
	var frames []*video.Frame
	for _, ct := range ds.Train {
		n := ct.Clip.Len()
		if n == 0 {
			continue
		}
		step := n / perClip
		if step < 1 {
			step = 1
		}
		for i := 0; i < n; i += step {
			frames = append(frames, ct.Clip.Frame(i))
		}
	}
	return detect.TrainBackground(frames)
}

// FinishTraining completes training after theta_best has been selected:
// it computes S* over the training set, selects the window-size set W,
// trains the five proxy models, trains the recurrent and pairwise tracking
// models with gap augmentation, and builds the endpoint refiner.
func (s *System) FinishTraining(best Config, seed int64) {
	s.Best = best
	rng := rand.New(rand.NewSource(seed))

	// S*: theta_best tracks over the training set (charged as training).
	s.SStar = make([][]*track.Track, len(s.DS.Train))
	var detsPerFrame [][]geom.Rect
	var proxyExamples []proxy.TrainExample
	for i, ct := range s.DS.Train {
		// Collect per-frame detections for window selection and proxy
		// training (a subsample keeps training costs low, like the
		// paper's sampled training frames). The observer runs in frame
		// order, so the SGD example order, and therefore the trained
		// weights, are reproducible run to run.
		s.SStar[i] = s.RunClip(best, ct.Clip, s.Acct, func(idx int, dets []detect.Detection) {
			boxes := make([]geom.Rect, len(dets))
			for k, d := range dets {
				boxes[k] = d.Box
			}
			detsPerFrame = append(detsPerFrame, boxes)
			if len(boxes) > 0 && idx%2 == 0 {
				proxyExamples = append(proxyExamples, proxy.TrainExample{
					Frame: ct.Clip.Frame(idx),
					Boxes: boxes,
				})
			}
		})
	}

	// Window-size selection W (k = 3 sizes including the full frame).
	ws := proxy.SelectWindowSizes(s.DS.Cfg.NomW, s.DS.Cfg.NomH, 3,
		best.Arch.PerPixelCost(), best.DetScale, detsPerFrame)
	s.WindowSizes = append([][2]int{}, ws.Sizes[1:]...)
	s.Acct.Add(costmodel.OpTrainProx, WindowSelectCost)

	// Proxy models at the five pre-determined resolutions.
	const maxProxyExamples = 60
	if len(proxyExamples) > maxProxyExamples {
		step := len(proxyExamples) / maxProxyExamples
		var kept []proxy.TrainExample
		for i := 0; i < len(proxyExamples); i += step {
			kept = append(kept, proxyExamples[i])
		}
		proxyExamples = kept
	}
	s.Proxies = nil
	for _, res := range proxy.DefaultResolutions(s.DS.Cfg.NomW, s.DS.Cfg.NomH) {
		m := proxy.NewModel(res[0], res[1], rng)
		m.Train(proxyExamples, s.Background, 12, rng, s.Acct)
		s.Proxies = append(s.Proxies, m)
	}

	// Tracking models trained on S* with gap augmentation.
	clips := make([]track.TrainClip, len(s.SStar))
	for i, tr := range s.SStar {
		clips[i] = track.TrainClip{Tracks: tr}
	}
	opts := track.DefaultTrainOptions()
	opts.Seed = seed
	s.Recurrent = track.NewRecurrentModel(s.DS.Cfg.NomW, s.DS.Cfg.NomH, s.DS.Cfg.FPS, rng)
	track.TrainRecurrent(s.Recurrent, clips, opts, s.Acct)
	s.Pair = track.NewPairModel(s.DS.Cfg.NomW, s.DS.Cfg.NomH, s.DS.Cfg.FPS, rng)
	track.TrainPair(s.Pair, clips, opts, s.Acct)

	// Endpoint refiner from the S* paths (fixed cameras only).
	if s.DS.FixedCamera {
		var paths []geom.Path
		for _, tracks := range s.SStar {
			for _, t := range tracks {
				if len(t.Dets) >= 3 {
					paths = append(paths, t.Path())
				}
			}
		}
		s.Refiner = refine.NewRefiner(paths, refine.DefaultDBSCANOptions())
		s.Acct.Add(costmodel.OpRefine, 1)
	}
}
