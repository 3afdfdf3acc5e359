package persist

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"otif/internal/core"
	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/nn"
	"otif/internal/proxy"
	"otif/internal/query"
	"otif/internal/refine"
	"otif/internal/track"
	"otif/internal/video"
)

// goldenTracks is a track set of about 300 KB once encoded: 24 clips of up
// to 12 tracks, categories and detection categories of 0 to 300 bytes, and
// one 70,000-byte category, so fields and strings straddle every buffer
// boundary a codec of 64 KiB buffers has. Every value comes from rng, whose
// sequence math/rand keeps stable.
func goldenTracks() [][]*query.Track {
	rng := rand.New(rand.NewSource(41))
	word := func() string {
		switch rng.Intn(4) {
		case 0:
			return ""
		case 1:
			return "car"
		case 2:
			return "bus"
		default:
			return strings.Repeat("x", rng.Intn(300))
		}
	}
	perClip := make([][]*query.Track, 24)
	for c := range perClip {
		for i := range rng.Intn(13) {
			t := &query.Track{ID: c*100 + i, Category: word()}
			frame := rng.Intn(50)
			for range rng.Intn(20) {
				cat := t.Category
				if rng.Intn(5) == 0 {
					cat = word()
				}
				t.Dets = append(t.Dets, detect.Detection{
					FrameIdx: frame,
					Box:      geom.Rect{X: rng.NormFloat64() * 300, Y: rng.Float64() * 700, W: rng.Float64() * 90, H: rng.Float64() * 60},
					Score:    rng.Float64(),
					Category: cat,
					AppMean:  rng.Float64() * 255,
					AppStd:   rng.Float64() * 64,
				})
				frame += rng.Intn(4)
			}
			for range rng.Intn(8) {
				t.Path = append(t.Path, geom.Point{X: rng.Float64() * 1280, Y: rng.Float64() * 720})
			}
			perClip[c] = append(perClip[c], t)
		}
	}
	perClip[11][0].Category = strings.Repeat("long", 17500)
	return perClip
}

// goldenSystem is a model bundle built from rng alone, not by training: a
// 400x225 background plane (90,000 bytes, more than one 64 KiB buffer), two
// proxies, three window sizes, both tracker models and two refinement
// clusters.
func goldenSystem() *core.System {
	rng := rand.New(rand.NewSource(42))
	frame := video.NewFrame(400, 225, 1280, 720)
	rng.Read(frame.Pix)
	lr := func(n int) *nn.LogReg {
		l := nn.NewLogReg(n, rng)
		l.B = rng.NormFloat64()
		return l
	}
	center := func() geom.Path {
		p := make(geom.Path, refine.PathSamples)
		for i := range p {
			p[i] = geom.Point{X: rng.Float64() * 1280, Y: rng.Float64() * 720}
		}
		return p
	}
	return &core.System{
		DS: &dataset.Instance{Name: "caldot1", Spec: dataset.SetSpec{Clips: 3, ClipSeconds: 4.5}},
		Best: core.Config{Arch: detect.ArchRCNN, DetScale: 0.75, DetConf: 0.3, UseProxy: true, ProxyIdx: 1,
			ProxyThresh: 0.2, Gap: 8, Tracker: core.TrackerRecurrent, VariableGap: true, Refine: true},
		Background:  detect.NewBackgroundModel(frame),
		Proxies:     []*proxy.Model{proxy.FromWeights(640, 360, lr(9)), proxy.FromWeights(320, 180, lr(9))},
		WindowSizes: [][2]int{{64, 64}, {128, 96}, {256, 256}},
		Recurrent:   &track.RecurrentModel{Hidden: 16, GRU: nn.NewGRUCell(track.FeatDim, 16, rng), Match: nn.NewMLP([]int{16 + track.FeatDim + track.MotionDim, 24, 1}, nn.ReLUAct, nn.SigmoidAct, rng)},
		Pair:        &track.PairModel{Match: nn.NewMLP([]int{10, 16, 1}, nn.ReLUAct, nn.SigmoidAct, rng)},
		Refiner:     &refine.Refiner{Clusters: []*refine.Cluster{{Center: center(), Size: 5}, {Center: center(), Size: 2}}},
	}
}

// TestGoldenBytes pins the three writers' output across commits: the
// round-trip tests compare a tree with itself, this one compares it with
// lengths and FNV-64a hashes recorded before the codec moved to 64 KiB
// buffers (commit a13e456). A codec change that claims to leave the format
// alone must leave these alone.
func TestGoldenBytes(t *testing.T) {
	perClip := goldenTracks()
	cases := []struct {
		name  string
		write func(*bytes.Buffer) error
		size  int
		hash  uint64
	}{
		{"segment", func(b *bytes.Buffer) error {
			meta := SegmentMeta{Dataset: "caldot1", ID: "seg-00003", StartClip: 24, FPS: 10, NomW: 1280, NomH: 720, Frames: 120}
			return WriteSegment(b, meta, perClip)
		}, 302591, 0xd07e674c62289b09},
		{"empty_segment", func(b *bytes.Buffer) error {
			return WriteSegment(b, SegmentMeta{}, nil)
		}, 80, 0xb89b65f56d896622},
		{"tracks_v2", func(b *bytes.Buffer) error {
			return WriteTracksV2(b, perClip, TrackMeta{FPS: 25, NomW: 1920, NomH: 1080, Frames: 120, Dataset: "jackson"})
		}, 302566, 0xe98ca1cbe77ba647},
		{"model_bundle", func(b *bytes.Buffer) error {
			return SaveModels(b, goldenSystem())
		}, 108607, 0x1f13e4898946f5d5},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := h.Sum64(); buf.Len() != tc.size || got != tc.hash {
			t.Errorf("%s: %d bytes hashing to %#x, want %d bytes hashing to %#x", tc.name, buf.Len(), got, tc.size, tc.hash)
		}
	}
}
