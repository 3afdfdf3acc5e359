package track

import (
	"math/rand"
	"testing"

	"otif/internal/costmodel"
	"otif/internal/detect"
	"otif/internal/geom"
)

// syntheticClips builds tracker training data: several clips of objects
// moving on straight lines at native rate, as if produced by theta_best.
func syntheticClips(rng *rand.Rand, nClips, tracksPerClip, frames int) []TrainClip {
	clips := make([]TrainClip, nClips)
	for c := range clips {
		var tracks []*Track
		for k := 0; k < tracksPerClip; k++ {
			x0 := rng.Float64() * 200
			y0 := float64(k)*150 + 20
			vx := 4 + rng.Float64()*4
			tr := &Track{ID: k, Category: "car"}
			for f := 0; f < frames; f++ {
				tr.Dets = append(tr.Dets, detect.Detection{
					FrameIdx: f,
					Box:      geom.Rect{X: x0 + vx*float64(f), Y: y0, W: 40, H: 20},
					Score:    0.9, Category: "car",
					AppMean: 100 + float64(k)*30, AppStd: 15,
				})
			}
			tracks = append(tracks, tr)
		}
		clips[c] = TrainClip{Tracks: tracks}
	}
	return clips
}

const (
	testNomW = 800
	testNomH = 600
	testFPS  = 10
)

func trainedRecurrent(t *testing.T, seed int64) (*RecurrentModel, []TrainClip) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	clips := syntheticClips(rng, 4, 3, 60)
	model := NewRecurrentModel(testNomW, testNomH, testFPS, rng)
	opts := DefaultTrainOptions()
	opts.Examples = 2500
	opts.Seed = seed
	TrainRecurrent(model, clips, opts, costmodel.NewAccountant())
	return model, clips
}

func trainedPair(t *testing.T, seed int64) *PairModel {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	clips := syntheticClips(rng, 4, 3, 60)
	model := NewPairModel(testNomW, testNomH, testFPS, rng)
	opts := DefaultTrainOptions()
	opts.Examples = 2500
	TrainPair(model, clips, opts, costmodel.NewAccountant())
	return model
}

func TestRecurrentModelScoresContinuationsHigh(t *testing.T) {
	model, _ := trainedRecurrent(t, 3)
	rng := rand.New(rand.NewSource(77))
	eval := syntheticClips(rng, 2, 3, 60)

	var posOK, posN, negOK, negN int
	for _, clip := range eval {
		for _, tr := range clip.Tracks {
			for _, gap := range []int{2, 8} {
				dets := SubSampleAtGap(tr.Dets, gap)
				if len(dets) < 3 {
					continue
				}
				prefix := dets[:2]
				target := dets[2]
				feats := prefixFeatures(model, prefix)
				h, _ := model.GRU.RunSequence(feats)
				tf := DetFeatures(target, testNomW, testNomH, testFPS, target.FrameIdx-prefix[1].FrameIdx)
				p := model.Score(h, tf, MotionFeatures(prefix, target, testNomW, testNomH))
				posN++
				if p > 0.5 {
					posOK++
				}
				// Negative: another track's detection at the same frame.
				for _, other := range clip.Tracks {
					if other == tr {
						continue
					}
					for _, d := range other.Dets {
						if d.FrameIdx == target.FrameIdx {
							nf := DetFeatures(d, testNomW, testNomH, testFPS, d.FrameIdx-prefix[1].FrameIdx)
							q := model.Score(h, nf, MotionFeatures(prefix, d, testNomW, testNomH))
							negN++
							if q < 0.5 {
								negOK++
							}
							break
						}
					}
				}
			}
		}
	}
	if posN == 0 || negN == 0 {
		t.Fatal("no evaluation pairs")
	}
	if float64(posOK)/float64(posN) < 0.8 {
		t.Errorf("positive accuracy %d/%d, want >= 80%%", posOK, posN)
	}
	if float64(negOK)/float64(negN) < 0.8 {
		t.Errorf("negative accuracy %d/%d, want >= 80%%", negOK, negN)
	}
}

func TestRecurrentTrackerReassemblesTracks(t *testing.T) {
	model, _ := trainedRecurrent(t, 5)
	rng := rand.New(rand.NewSource(88))
	eval := syntheticClips(rng, 1, 3, 60)

	// Feed detections at gap 4 and expect one track per object.
	const gap = 4
	tracker := NewRecurrentTracker(model, costmodel.NewAccountant())
	byFrame := map[int][]detect.Detection{}
	for _, tr := range eval[0].Tracks {
		for _, d := range tr.Dets {
			if d.FrameIdx%gap == 0 {
				byFrame[d.FrameIdx] = append(byFrame[d.FrameIdx], d)
			}
		}
	}
	for f := 0; f < 60; f += gap {
		tracker.Update(&FrameContext{FrameIdx: f, GapFrames: gap}, byFrame[f])
	}
	tracks := PruneShort(tracker.Finish(), 2)
	if len(tracks) != 3 {
		t.Errorf("reassembled %d tracks, want 3", len(tracks))
	}
	for _, tr := range tracks {
		if len(tr.Dets) < 10 {
			t.Errorf("fragmented track of length %d", len(tr.Dets))
		}
	}
}

func TestPairTrackerChainsMatches(t *testing.T) {
	model := trainedPair(t, 9)
	eval := syntheticClips(rand.New(rand.NewSource(55)), 1, 3, 60)
	const gap = 4
	tracker := NewPairTracker(model, costmodel.NewAccountant())
	for f := 0; f < 60; f += gap {
		var dets []detect.Detection
		for _, tr := range eval[0].Tracks {
			for _, d := range tr.Dets {
				if d.FrameIdx == f {
					dets = append(dets, d)
				}
			}
		}
		tracker.Update(&FrameContext{FrameIdx: f, GapFrames: gap}, dets)
	}
	tracks := PruneShort(tracker.Finish(), 2)
	if len(tracks) != 3 {
		t.Errorf("pair tracker produced %d tracks, want 3", len(tracks))
	}
}

func TestTrainRecurrentChargesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clips := syntheticClips(rng, 1, 2, 30)
	model := NewRecurrentModel(testNomW, testNomH, testFPS, rng)
	acct := costmodel.NewAccountant()
	opts := DefaultTrainOptions()
	opts.Examples = 100
	TrainRecurrent(model, clips, opts, acct)
	if acct.Get(costmodel.OpTrainTrkr) <= 0 {
		t.Error("training must charge simulated cost")
	}
}

func TestTrainWithNoTracksIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := NewRecurrentModel(testNomW, testNomH, testFPS, rng)
	TrainRecurrent(model, nil, DefaultTrainOptions(), costmodel.NewAccountant())
	pair := NewPairModel(testNomW, testNomH, testFPS, rng)
	TrainPair(pair, []TrainClip{{}}, DefaultTrainOptions(), costmodel.NewAccountant())
	// Nothing to assert beyond "does not panic".
}
