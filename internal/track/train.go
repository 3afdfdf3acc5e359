package track

import (
	"math/rand"

	"otif/internal/costmodel"
	"otif/internal/detect"
	"otif/internal/nn"
)

// TrainClip is one training clip's worth of tracker training data: the
// tracks S* computed by the best-accuracy configuration theta_best over the
// training set. Appearance statistics ride along on each detection.
type TrainClip struct {
	Tracks []*Track
}

// TrainOptions configures tracker training.
type TrainOptions struct {
	// Gaps is the maximal gap sequence G = <1, 2, 4, ..., 2^n>; training
	// examples sub-sample tracks at gaps drawn from it so the model stays
	// robust across every sampling rate the tuner may pick (§3.4).
	Gaps []int
	// Examples is the number of (track, gap) training examples to draw.
	Examples int
	// LR is the SGD learning rate.
	LR float64
	// Seed drives example sampling and negative mining.
	Seed int64
}

// DefaultTrainOptions returns the training settings used by the pipeline.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{Gaps: []int{1, 2, 4, 8, 16, 32}, Examples: 6000, LR: 0.05, Seed: 1}
}

// SubSampleAtGap implements the paper's example construction: starting from
// the track's first detection, keep each subsequent detection that is at
// least g frames after the previously kept one.
func SubSampleAtGap(dets []detect.Detection, g int) []detect.Detection {
	if len(dets) == 0 {
		return nil
	}
	out := []detect.Detection{dets[0]}
	last := dets[0].FrameIdx
	for _, d := range dets[1:] {
		if d.FrameIdx-last >= g {
			out = append(out, d)
			last = d.FrameIdx
		}
	}
	return out
}

// TrainRecurrent trains the recurrent matching model on theta_best tracks
// using gap augmentation: each example samples a track s ~ S* and a gap
// g ~ G, sub-samples the track at gap g, runs the GRU over a random prefix,
// and trains the matching MLP (and, through it, the GRU) to score the true
// next detection 1 and contemporaneous detections of other tracks 0.
func TrainRecurrent(model *RecurrentModel, clips []TrainClip, opts TrainOptions, acct *costmodel.Accountant) {
	rng := rand.New(rand.NewSource(opts.Seed))
	type indexed struct {
		clip  int
		track *Track
	}
	var pool []indexed
	for ci, c := range clips {
		for _, t := range c.Tracks {
			if len(t.Dets) >= 3 {
				pool = append(pool, indexed{ci, t})
			}
		}
	}
	if len(pool) == 0 {
		return
	}
	const clip = 1.0
	for n := 0; n < opts.Examples; n++ {
		pick := pool[rng.Intn(len(pool))]
		g := opts.Gaps[rng.Intn(len(opts.Gaps))]
		dets := SubSampleAtGap(pick.track.Dets, g)
		if len(dets) < 2 {
			continue
		}
		// Random split: prefix of length >= 1, target is the next det.
		split := 1 + rng.Intn(len(dets)-1)
		prefix := dets[:split]
		target := dets[split]

		feats := prefixFeatures(model, prefix)
		h, steps := model.GRU.RunSequence(feats)

		tgtElapsed := target.FrameIdx - prefix[len(prefix)-1].FrameIdx
		tgtFeat := DetFeatures(target, model.NomW, model.NomH, model.FPS, tgtElapsed)

		// Negatives: detections from other tracks near the target frame.
		negs := sampleNegatives(clips[pick.clip].Tracks, pick.track, target.FrameIdx, 2, rng)

		dH := nn.NewVec(model.Hidden)
		trainPair := func(cand detect.Detection, f nn.Vec, label float64) {
			motion := MotionFeatures(prefix, cand, model.NomW, model.NomH)
			p := model.Match.Forward(nn.Concat(h, f, motion))
			_, grad := nn.BCELoss(p[0], label)
			dIn := model.Match.Backward(nn.Vec{grad}, opts.LR, clip)
			for i := 0; i < model.Hidden; i++ {
				dH[i] += dIn[i]
			}
		}
		trainPair(target, tgtFeat, 1)
		for _, neg := range negs {
			elapsed := neg.FrameIdx - prefix[len(prefix)-1].FrameIdx
			if elapsed < 1 {
				elapsed = 1
			}
			f := DetFeatures(neg, model.NomW, model.NomH, model.FPS, elapsed)
			trainPair(neg, f, 0)
		}
		model.GRU.SequenceBackward(steps, dH, opts.LR*0.5, clip)
		acct.Add(costmodel.OpTrainTrkr, costmodel.TrackerPerAssoc*float64(1+len(negs))*3)
	}
}

// TrainPair trains the Miris-style pairwise matcher with the same gap
// augmentation, on (previous detection, next detection) pairs.
func TrainPair(model *PairModel, clips []TrainClip, opts TrainOptions, acct *costmodel.Accountant) {
	rng := rand.New(rand.NewSource(opts.Seed))
	type indexed struct {
		clip  int
		track *Track
	}
	var pool []indexed
	for ci, c := range clips {
		for _, t := range c.Tracks {
			if len(t.Dets) >= 2 {
				pool = append(pool, indexed{ci, t})
			}
		}
	}
	if len(pool) == 0 {
		return
	}
	const clip = 1.0
	for n := 0; n < opts.Examples; n++ {
		pick := pool[rng.Intn(len(pool))]
		g := opts.Gaps[rng.Intn(len(opts.Gaps))]
		dets := SubSampleAtGap(pick.track.Dets, g)
		if len(dets) < 2 {
			continue
		}
		i := rng.Intn(len(dets) - 1)
		prev, next := dets[i], dets[i+1]
		elapsed := next.FrameIdx - prev.FrameIdx

		trainPair := func(cand detect.Detection, label float64) {
			f := PairFeatures(prev, cand, model.NomW, model.NomH, model.FPS, elapsed)
			p := model.Match.Forward(f)
			_, grad := nn.BCELoss(p[0], label)
			model.Match.Backward(nn.Vec{grad}, opts.LR, clip)
		}
		trainPair(next, 1)
		for _, neg := range sampleNegatives(clips[pick.clip].Tracks, pick.track, next.FrameIdx, 2, rng) {
			trainPair(neg, 0)
		}
		acct.Add(costmodel.OpTrainTrkr, costmodel.TrackerPerAssoc*3)
	}
}

// prefixFeatures computes detection-level features for a track prefix; the
// t_elapsed of each detection is the frame distance to its predecessor.
func prefixFeatures(model *RecurrentModel, prefix []detect.Detection) []nn.Vec {
	feats := make([]nn.Vec, len(prefix))
	for i, d := range prefix {
		elapsed := 0
		if i > 0 {
			elapsed = d.FrameIdx - prefix[i-1].FrameIdx
		}
		feats[i] = DetFeatures(d, model.NomW, model.NomH, model.FPS, elapsed)
	}
	return feats
}

// sampleNegatives picks up to n detections from other tracks at or near the
// target frame, preferring exact-frame contemporaries.
func sampleNegatives(tracks []*Track, exclude *Track, frameIdx, n int, rng *rand.Rand) []detect.Detection {
	var cands []detect.Detection
	for _, t := range tracks {
		if t == exclude {
			continue
		}
		for _, d := range t.Dets {
			if max(d.FrameIdx-frameIdx, frameIdx-d.FrameIdx) <= 2 {
				cands = append(cands, d)
			}
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > n {
		cands = cands[:n]
	}
	return cands
}
