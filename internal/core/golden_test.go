package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"otif/internal/dataset"
	"otif/internal/detect"
)

// goldenClip is what one clip of a golden run must reproduce: how many
// tracks and detections it holds and an FNV-64a over the bits of every
// detection box and path point, in track order.
type goldenClip struct {
	tracks, dets int
	hash         uint64
}

func clipDigest(res *SetResult, clip int) goldenClip {
	g := goldenClip{tracks: len(res.PerClip[clip])}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, tr := range res.PerClip[clip] {
		g.dets += len(tr.Dets)
		for _, d := range tr.Dets {
			put(d.Box.X)
			put(d.Box.Y)
			put(d.Box.W)
			put(d.Box.H)
		}
		for _, p := range tr.Path {
			put(p.X)
			put(p.Y)
		}
	}
	g.hash = h.Sum64()
	return g
}

// TestGoldenExtraction pins extraction output across commits: the other
// differential tests compare two runs of one tree, this one compares the
// tree with constants recorded on commit 588826d (the first two cases) and
// 9bc8d65 (the pair and variable-gap cases). A refactor that claims
// to leave results alone must leave these alone. The constants hold on
// amd64 only; targets that fuse multiply-adds round differently.
func TestGoldenExtraction(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden constants were recorded on amd64")
	}
	cases := []struct {
		dataset string
		cfg     func(sys *System) Config
		runtime uint64
		clips   []goldenClip
	}{
		{
			// Every stage at once: proxy windows, gap skipping, the
			// recurrent tracker and endpoint refinement.
			dataset: "caldot1",
			cfg: func(sys *System) Config {
				cfg := sys.Best
				cfg.UseProxy, cfg.ProxyIdx, cfg.ProxyThresh = true, 0, 0.3
				cfg.Gap, cfg.Tracker, cfg.Refine = 4, TrackerRecurrent, true
				return cfg
			},
			runtime: 0x3fc145c967a5a216,
			clips: []goldenClip{
				{8, 26, 0x71bf2479baedb755},
				{3, 25, 0xea4b7e2431376438},
			},
		},
		{
			// The dense path: full-frame detection on every frame, SORT.
			dataset: "tokyo",
			cfg:     func(sys *System) Config { return sys.Best },
			runtime: 0x4013487042bfe7c0,
			clips: []goldenClip{
				{31, 781, 0x4a95f3447cbcc5bf},
				{16, 575, 0x953676a78756b5cc},
			},
		},
		{
			// The pairwise matcher of the Miris and CenterTrack baselines
			// at a reduced rate. Recorded on commit 9bc8d65.
			dataset: "caldot1",
			cfg: func(sys *System) Config {
				cfg := sys.Best
				cfg.Gap, cfg.Tracker = 4, TrackerPair
				return cfg
			},
			runtime: 0x3fd3a3a34f6c9673,
			clips: []goldenClip{
				{5, 26, 0x7c65f6bd92f875d},
				{2, 25, 0xa09e5723bbfedbc8},
			},
		},
		{
			// The variable-rate policy, steered by the recurrent
			// tracker's LastConfidence. Recorded on commit 9bc8d65.
			dataset: "warsaw",
			cfg: func(sys *System) Config {
				cfg := sys.Best
				cfg.Gap, cfg.Tracker, cfg.VariableGap = 8, TrackerRecurrent, true
				return cfg
			},
			runtime: 0x3fed3c7f63cd0f25,
			clips: []goldenClip{
				{21, 117, 0x2f8017d98acc304b},
				{12, 67, 0xd2b594f4cb145137},
			},
		},
	}
	for _, tc := range cases {
		ds, err := dataset.Build(tc.dataset, dataset.SetSpec{Clips: 2, ClipSeconds: 4}, 11)
		if err != nil {
			t.Fatal(err)
		}
		sys := NewSystem(ds)
		sys.FinishTraining(Config{Arch: detect.ArchYOLO, DetScale: 1.0, DetConf: DetConfDefault, Gap: 1, Tracker: TrackerSORT}, 42)
		res := sys.RunSet(tc.cfg(sys), ds.Val)
		if got := math.Float64bits(res.Runtime); got != tc.runtime {
			t.Errorf("%s: Float64bits(Runtime) = %#x, want %#x", tc.dataset, got, tc.runtime)
		}
		if len(res.PerClip) != len(tc.clips) {
			t.Errorf("%s: %d clips, want %d", tc.dataset, len(res.PerClip), len(tc.clips))
		}
		for i := range res.PerClip {
			got := clipDigest(res, i)
			if i >= len(tc.clips) || got != tc.clips[i] {
				t.Errorf("%s clip %d: got {%d, %d, %#x}", tc.dataset, i, got.tracks, got.dets, got.hash)
			}
		}
	}
}
