package persist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"otif/internal/core"
	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/nn"
	"otif/internal/proxy"
	"otif/internal/query"
	"otif/internal/refine"
	"otif/internal/track"
	"otif/internal/tuner"
)

func sampleTracks(rng *rand.Rand, nClips int) [][]*query.Track {
	out := make([][]*query.Track, nClips)
	for c := range out {
		n := rng.Intn(4)
		for i := 0; i < n; i++ {
			t := &query.Track{ID: i, Category: "car"}
			for f := 0; f < rng.Intn(6)+2; f++ {
				t.Dets = append(t.Dets, detect.Detection{
					FrameIdx: f * 2,
					Box:      geom.Rect{X: rng.Float64() * 100, Y: rng.Float64() * 100, W: 40, H: 20},
					Score:    rng.Float64(),
					Category: "car",
					AppMean:  rng.Float64() * 255,
					AppStd:   rng.Float64() * 64,
				})
				t.Path = append(t.Path, t.Dets[len(t.Dets)-1].Box.Center())
			}
			out[c] = append(out[c], t)
		}
	}
	return out
}

func tracksEqual(a, b [][]*query.Track) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return false
		}
		for i := range a[c] {
			x, y := a[c][i], b[c][i]
			if x.ID != y.ID || x.Category != y.Category ||
				len(x.Dets) != len(y.Dets) || len(x.Path) != len(y.Path) {
				return false
			}
			for k := range x.Dets {
				if x.Dets[k] != y.Dets[k] {
					return false
				}
			}
			for k := range x.Path {
				if x.Path[k] != y.Path[k] {
					return false
				}
			}
		}
	}
	return true
}

func TestTracksRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// The zero header and the empty set are files too.
	for _, tracks := range [][][]*query.Track{sampleTracks(rng, 3), {}} {
		var buf bytes.Buffer
		if err := WriteTracksV2(&buf, tracks, TrackMeta{}); err != nil {
			t.Fatal(err)
		}
		got, meta, err := ReadTracksAuto(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if *meta != (TrackMeta{}) {
			t.Errorf("zero meta read back as %+v", meta)
		}
		if !tracksEqual(tracks, got) {
			t.Errorf("roundtrip mismatch on %d clips", len(tracks))
		}
	}
}

func TestTracksRoundtripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tracks := sampleTracks(rng, rng.Intn(3)+1)
		// Frames stays past every sampled detection (frame 12 at most): the
		// reader rejects a detection at or past a positive Frames.
		meta := TrackMeta{FPS: rng.Intn(60), NomW: rng.Intn(4000), NomH: rng.Intn(3000), Frames: 13 + rng.Intn(2000), Dataset: "ds"}
		var buf bytes.Buffer
		if err := WriteTracksV2(&buf, tracks, meta); err != nil {
			return false
		}
		got, gotMeta, err := ReadTracksAuto(&buf)
		return err == nil && *gotMeta == meta && tracksEqual(tracks, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTracksV2Roundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tracks := sampleTracks(rng, 3)
	meta := TrackMeta{FPS: 25, NomW: 1280, NomH: 720, Frames: 250, Dataset: "caldot1"}
	var buf bytes.Buffer
	if err := WriteTracksV2(&buf, tracks, meta); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := ReadTracksAuto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta == nil || *gotMeta != meta {
		t.Errorf("meta roundtrip = %+v, want %+v", gotMeta, meta)
	}
	if !tracksEqual(tracks, got) {
		t.Error("v2 roundtrip mismatch")
	}
}

// TestTracksV1MagicRejected pins that the retired headerless format is not
// read: its magic is a bad magic like any other.
func TestTracksV1MagicRejected(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf)
	w.header("OTIFTRK1")
	writeTrackBody(w, sampleTracks(rand.New(rand.NewSource(6)), 2))
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadTracksAuto(&buf); !errors.Is(err, ErrBadMagic) {
		t.Errorf("OTIFTRK1 file: err = %v, want ErrBadMagic", err)
	}
}

func TestTracksV2CorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	meta := TrackMeta{FPS: 10, NomW: 640, NomH: 360, Frames: 100, Dataset: "x"}
	if err := WriteTracksV2(&buf, sampleTracks(rng, 2), meta); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// A flipped header byte must fail the checksum (the header is
	// covered), and truncation must be detected.
	bad := append([]byte{}, data...)
	bad[10] ^= 0x40
	if _, _, err := ReadTracksAuto(bytes.NewReader(bad)); err == nil {
		t.Error("v2 header corruption not detected")
	}
	if _, _, err := ReadTracksAuto(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("v2 truncation not detected")
	}
}

func TestTracksCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	if err := WriteTracksV2(&buf, sampleTracks(rng, 2), TrackMeta{FPS: 10, Frames: 100}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, data...)
	bad[0] ^= 0xFF
	if _, _, err := ReadTracksAuto(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic error = %v", err)
	}

	// Bad version (the four bytes after the magic).
	bad = append([]byte{}, data...)
	bad[len(trackMagic)] = 3
	if _, _, err := ReadTracksAuto(bytes.NewReader(bad)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version error = %v", err)
	}

	// Flipped payload byte -> checksum mismatch (or implausible length).
	bad = append([]byte{}, data...)
	bad[len(bad)/2] ^= 0x55
	if _, _, err := ReadTracksAuto(bytes.NewReader(bad)); err == nil {
		t.Error("corruption not detected")
	}

	// Flipped checksum byte.
	bad = append([]byte{}, data...)
	bad[len(bad)-1] ^= 0x01
	if _, _, err := ReadTracksAuto(bytes.NewReader(bad)); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("bad checksum error = %v, want ErrBadChecksum", err)
	}

	// Truncation, at every length short of the whole file.
	for n := 0; n < len(data); n++ {
		if _, _, err := ReadTracksAuto(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes not detected", n, len(data))
		}
	}
}

func TestModelsRoundtrip(t *testing.T) {
	ds, err := dataset.Build("caldot1", dataset.SetSpec{Clips: 2, ClipSeconds: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(ds)
	metric := core.MetricFor(ds)
	best, _ := tuner.SelectBest(sys, metric)
	sys.FinishTraining(best, 42)

	var buf bytes.Buffer
	if err := SaveModels(&buf, sys); err != nil {
		t.Fatal(err)
	}

	// Fresh dataset + system, load the bundle.
	ds2, err := dataset.Build("caldot1", dataset.SetSpec{Clips: 2, ClipSeconds: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys2 := core.NewSystem(ds2)
	if err := LoadModels(bytes.NewReader(buf.Bytes()), sys2); err != nil {
		t.Fatal(err)
	}

	if sys2.Best != sys.Best {
		t.Errorf("theta_best mismatch: %v vs %v", sys2.Best, sys.Best)
	}
	if len(sys2.Proxies) != len(sys.Proxies) {
		t.Fatalf("proxies = %d", len(sys2.Proxies))
	}
	for i := range sys.Proxies {
		if sys2.Proxies[i].ResW != sys.Proxies[i].ResW {
			t.Error("proxy resolution mismatch")
		}
		if sys2.Proxies[i].LR.B != sys.Proxies[i].LR.B {
			t.Error("proxy bias mismatch")
		}
	}
	if len(sys2.WindowSizes) != len(sys.WindowSizes) {
		t.Error("window sizes mismatch")
	}
	if (sys2.Refiner == nil) != (sys.Refiner == nil) {
		t.Error("refiner presence mismatch")
	}

	// The loaded system must produce identical results to the original.
	cfg := sys.Best
	cfg.Tracker = core.TrackerRecurrent
	cfg.Gap = 4
	a := sys.RunSet(cfg, ds.Val)
	b := sys2.RunSet(cfg, ds2.Val)
	if len(a.PerClip) != len(b.PerClip) {
		t.Fatal("clip counts differ")
	}
	for i := range a.PerClip {
		if len(a.PerClip[i]) != len(b.PerClip[i]) {
			t.Errorf("clip %d: %d vs %d tracks", i, len(a.PerClip[i]), len(b.PerClip[i]))
		}
	}
	if a.Runtime != b.Runtime {
		t.Errorf("runtimes differ: %v vs %v", a.Runtime, b.Runtime)
	}
}

func TestLoadModelsRejectsWrongDataset(t *testing.T) {
	ds, _ := dataset.Build("caldot1", dataset.SetSpec{Clips: 1, ClipSeconds: 2}, 5)
	sys := core.NewSystem(ds)
	sys.FinishTraining(core.Config{Arch: detect.ArchYOLO, DetScale: 1, DetConf: 0.25, Gap: 1, Tracker: core.TrackerSORT}, 42)
	var buf bytes.Buffer
	if err := SaveModels(&buf, sys); err != nil {
		t.Fatal(err)
	}
	other, _ := dataset.Build("tokyo", dataset.SetSpec{Clips: 1, ClipSeconds: 2}, 5)
	sys2 := core.NewSystem(other)
	if err := LoadModels(bytes.NewReader(buf.Bytes()), sys2); err == nil {
		t.Error("loading a caldot1 bundle into tokyo must fail")
	}
}

// TestLoadModelsRejectsInvalidTheta saves complete, checksummed bundles
// whose theta_best, proxy models, window sizes or tracker models no
// pipeline can run, one field per case. Each used to load without error;
// a Gap of 0 then panicked inside a tuner worker ("video: invalid sampling
// gap 0"), and a recurrent matcher one bias entry short panicked in
// RunClip on the first frame with detections ("index out of range [23]
// with length 23"). A refinement cluster with a NaN center point made
// RefineEndpoints return a NaN endpoint as a refinement.
func TestLoadModelsRejectsInvalidTheta(t *testing.T) {
	ds, err := dataset.Build("caldot1", dataset.SetSpec{Clips: 1, ClipSeconds: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(ds)
	valid := core.Config{Arch: detect.ArchYOLO, DetScale: 1, DetConf: 0.25, Gap: 1, Tracker: core.TrackerSORT}
	sys.FinishTraining(valid, 42)
	nomW, nomH := ds.Cfg.NomW, ds.Cfg.NomH
	theta := func(edit func(c *core.Config)) func(*core.System) {
		return func(s *core.System) { edit(&s.Best) }
	}
	// The model edits work on deep copies, which save swaps back out.
	cloneDense := func(d *nn.Dense) *nn.Dense {
		c := *d
		c.W, c.B = slices.Clone(d.W), slices.Clone(d.B)
		return &c
	}
	cloneMLP := func(m *nn.MLP) *nn.MLP {
		c := &nn.MLP{}
		for _, l := range m.Layers {
			c.Layers = append(c.Layers, cloneDense(l))
		}
		return c
	}
	recurrent := func(edit func(m *track.RecurrentModel)) func(*core.System) {
		return func(s *core.System) {
			m, g := *s.Recurrent, *s.Recurrent.GRU
			g.Wz, g.Wr, g.Wc = cloneDense(g.Wz), cloneDense(g.Wr), cloneDense(g.Wc)
			m.GRU, m.Match = &g, cloneMLP(m.Match)
			edit(&m)
			s.Recurrent = &m
		}
	}
	pair := func(edit func(m *track.PairModel)) func(*core.System) {
		return func(s *core.System) {
			m := *s.Pair
			m.Match = cloneMLP(m.Match)
			edit(&m)
			s.Pair = &m
		}
	}
	// The refinement edits replace the clusters with two valid copies of a
	// lane's center, then break the second.
	clusters := func(edit func(c *refine.Cluster)) func(*core.System) {
		return func(s *core.System) {
			lane := geom.Path{{X: 0, Y: 100}, {X: float64(nomW), Y: 120}}.Resample(refine.PathSamples)
			cs := []*refine.Cluster{{Center: lane, Size: 3}, {Center: slices.Clone(lane), Size: 2}}
			edit(cs[1])
			s.Refiner = refine.FromClusters(cs, refine.DefaultDBSCANOptions())
		}
	}
	rng := rand.New(rand.NewSource(3))
	const wide = 257 // a hidden size past the bound, with every shape consistent
	cases := []struct {
		name, field string
		edit        func(*core.System)
	}{
		{"arch", "Arch", theta(func(c *core.Config) { c.Arch = "ssd" })},
		{"tracker", "Tracker", theta(func(c *core.Config) { c.Tracker = "kalman" })},
		{"gap_zero", "Gap", theta(func(c *core.Config) { c.Gap = 0 })},
		{"gap_large", "Gap", theta(func(c *core.Config) { c.Gap = 65 })},
		{"det_scale_zero", "DetScale", theta(func(c *core.Config) { c.DetScale = 0 })},
		{"det_scale_above_one", "DetScale", theta(func(c *core.Config) { c.DetScale = 1.5 })},
		{"det_scale_nan", "DetScale", theta(func(c *core.Config) { c.DetScale = math.NaN() })},
		{"det_conf_nan", "DetConf", theta(func(c *core.Config) { c.DetConf = math.NaN() })},
		{"det_conf_inf", "DetConf", theta(func(c *core.Config) { c.DetConf = math.Inf(-1) })},
		{"proxy_thresh_inf", "ProxyThresh", theta(func(c *core.Config) { c.ProxyThresh = math.Inf(1) })},
		{"proxy_idx_past_end", "ProxyIdx", theta(func(c *core.Config) { c.UseProxy, c.ProxyIdx = true, len(sys.Proxies) })},
		{"proxy_idx_negative", "ProxyIdx", theta(func(c *core.Config) { c.UseProxy, c.ProxyIdx = true, -1 })},
		{"proxy_res_zero", "proxy 0 resolution", func(s *core.System) { s.Proxies[0].ResW = 0 }},
		{"proxy_res_large", "proxy 0 resolution", func(s *core.System) { s.Proxies[0].ResH = nomH + 1 }},
		{"window_zero", "window size 0", func(s *core.System) { s.WindowSizes = [][2]int{{0, 40}} }},
		{"window_large", "window size 1", func(s *core.System) { s.WindowSizes = [][2]int{{64, 64}, {nomW + 1, 64}} }},
		{"proxy_weights_short", "proxy 0", func(s *core.System) {
			lr := s.Proxies[0].LR
			s.Proxies = append([]*proxy.Model{{ResW: s.Proxies[0].ResW, ResH: s.Proxies[0].ResH,
				LR: &nn.LogReg{W: lr.W[:len(lr.W)-1], B: lr.B}}}, s.Proxies[1:]...)
		}},
		{"recurrent_bias_short", "recurrent matcher: layer 0", recurrent(func(m *track.RecurrentModel) {
			l := m.Match.Layers[0]
			l.B = l.B[:len(l.B)-1]
		})},
		{"recurrent_hidden_narrow", "recurrent GRU", recurrent(func(m *track.RecurrentModel) { m.Hidden = 4 })},
		{"recurrent_hidden_wide", "Hidden", recurrent(func(m *track.RecurrentModel) {
			m.Hidden = wide
			m.GRU = nn.NewGRUCell(track.FeatDim, wide, rng)
			m.Match = nn.NewMLP([]int{wide + track.FeatDim + track.MotionDim, 24, 1}, nn.ReLUAct, nn.SigmoidAct, rng)
		})},
		{"recurrent_gate_shape", "gate Wr", recurrent(func(m *track.RecurrentModel) {
			m.GRU.Wr = nn.NewDense(m.Hidden+track.FeatDim, m.Hidden-1, nn.SigmoidAct, rng)
		})},
		{"recurrent_gate_inf", "gate Wc", recurrent(func(m *track.RecurrentModel) { m.GRU.Wc.W[0] = math.Inf(1) })},
		{"recurrent_match_input", "recurrent matcher: layer 0: input", recurrent(func(m *track.RecurrentModel) {
			m.Match.Layers[0] = nn.NewDense(m.Hidden+track.FeatDim, 24, nn.ReLUAct, rng)
		})},
		{"recurrent_activation", "recurrent matcher: layer 1: unknown activation", recurrent(func(m *track.RecurrentModel) {
			m.Match.Layers[1].Act = 7
		})},
		{"pair_bias_empty", "pair matcher: layer 1", pair(func(m *track.PairModel) { m.Match.Layers[1].B = nil })},
		{"pair_input", "pair matcher: layer 0: input", pair(func(m *track.PairModel) {
			m.Match.Layers[0] = nn.NewDense(9, 16, nn.ReLUAct, rng)
		})},
		{"pair_chain", "pair matcher: layer 1: input", pair(func(m *track.PairModel) {
			m.Match.Layers[1] = nn.NewDense(15, 1, nn.SigmoidAct, rng)
		})},
		{"pair_two_outputs", "pair matcher: layer 1: output", pair(func(m *track.PairModel) {
			m.Match.Layers[1] = nn.NewDense(16, 2, nn.SigmoidAct, rng)
		})},
		{"pair_weight_nan", "not finite", pair(func(m *track.PairModel) { m.Match.Layers[0].W[3] = math.NaN() })},
		// A NaN first center X made RefineEndpoints return a NaN start
		// with ok true.
		{"cluster_center_nan", "refinement cluster 1: center point 0", clusters(func(c *refine.Cluster) { c.Center[0].X = math.NaN() })},
		{"cluster_center_inf", "refinement cluster 1: center point 7", clusters(func(c *refine.Cluster) { c.Center[7].Y = math.Inf(-1) })},
		{"cluster_size_zero", "refinement cluster 1: size", clusters(func(c *refine.Cluster) { c.Size = 0 })},
		{"cluster_center_short", "refinement cluster 1: center has", clusters(func(c *refine.Cluster) { c.Center = c.Center[:refine.PathSamples-1] })},
		{"cluster_center_long", "refinement cluster 1: center has", clusters(func(c *refine.Cluster) { c.Center = append(c.Center, c.Center[0]) })},
	}
	save := func(edit func(*core.System)) []byte {
		best, res, sizes := sys.Best, [2]int{sys.Proxies[0].ResW, sys.Proxies[0].ResH}, sys.WindowSizes
		proxies, rec, pm, ref := sys.Proxies, sys.Recurrent, sys.Pair, sys.Refiner
		defer func() {
			sys.Best, sys.Proxies[0].ResW, sys.Proxies[0].ResH, sys.WindowSizes = best, res[0], res[1], sizes
			sys.Proxies, sys.Recurrent, sys.Pair, sys.Refiner = proxies, rec, pm, ref
		}()
		if edit != nil {
			edit(sys)
		}
		var buf bytes.Buffer
		if err := SaveModels(&buf, sys); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// The unedited bundle loads: every failure below is the edit's.
	if err := LoadModels(bytes.NewReader(save(nil)), core.NewSystem(ds)); err != nil {
		t.Fatalf("valid bundle: %v", err)
	}
	for _, tc := range cases {
		err := LoadModels(bytes.NewReader(save(tc.edit)), core.NewSystem(ds))
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: LoadModels = %v, want an error naming %s", tc.name, err, tc.field)
		}
	}
}

// hostileTrackFiles are track files that end right after a header count of
// the largest accepted size: no records, no checksum.
func hostileTrackFiles(t testing.TB) map[string][]byte {
	return hostileFiles(t, func(w *writer) {
		w.bytes([]byte(trackMagic))
		w.u32(trackVersion)
		for i := 0; i < 4; i++ { // FPS, NomW, NomH, Frames
			w.int(0)
		}
		w.str("")
	})
}

// hostileFiles writes head, then each hostile start of a track body.
func hostileFiles(t testing.TB, head func(w *writer)) map[string][]byte {
	build := func(fill func(w *writer)) []byte {
		var buf bytes.Buffer
		w := newWriter(&buf)
		head(w)
		fill(w)
		if w.err != nil {
			t.Fatal(w.err)
		}
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	track := func(w *writer) { // one clip, one track, up to its detection count
		w.int(1)
		w.int(1)
		w.int(7)
		w.str("car")
	}
	return map[string][]byte{
		"clips":      build(func(w *writer) { w.int(1 << 20) }),
		"tracks":     build(func(w *writer) { w.int(1); w.int(1 << 24) }),
		"detections": build(func(w *writer) { track(w); w.int(1 << 24) }),
		"path":       build(func(w *writer) { track(w); w.int(0); w.int(1 << 24) }),
	}
}

// TestHostileCountsAllocateLittle feeds track files that end right after a
// header count of the largest accepted size. The counts precede the
// checksum, so nothing vouches for them: the reader must fail on the
// missing records having reserved next to nothing, not the gigabyte the
// count asks for.
func TestHostileCountsAllocateLittle(t *testing.T) {
	for name, data := range hostileTrackFiles(t) {
		if len(data) > 128 {
			t.Fatalf("%s: hostile file is %d bytes; it should be a few dozen", name, len(data))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadTracksAuto(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: truncated file read without error", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
			t.Errorf("%s: a %d-byte file made the reader allocate %d bytes", name, len(data), got)
		}
	}
}

// TestHostileModelBundleAllocatesLittle is the same for model bundles: a
// valid preamble, then a count of the largest accepted size — for the
// background plane, a proxy's weights, a dense layer, the refinement
// clusters — and nothing after it.
func TestHostileModelBundleAllocatesLittle(t *testing.T) {
	ds, err := dataset.Build("caldot1", dataset.SetSpec{Clips: 1, ClipSeconds: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	build := func(fill func(w *writer)) []byte {
		var buf bytes.Buffer
		w := newWriter(&buf)
		w.header(modelMagic)
		w.str(ds.Name)
		w.int(ds.Spec.Clips)
		w.f64(ds.Spec.ClipSeconds)
		writeConfig(w, core.Config{Arch: detect.ArchYOLO, DetScale: 1, Gap: 1, Tracker: core.TrackerSORT})
		fill(w)
		if w.err != nil {
			t.Fatal(w.err)
		}
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plane := func(w *writer) { // a 1x1 background, then nothing optional
		for _, v := range []int{1, 1, 640, 360} {
			w.int(v)
		}
		w.bytes([]byte{0})
	}
	bundles := map[string][]byte{
		"plane": build(func(w *writer) { w.int(1 << 13); w.int(1 << 13); w.int(640); w.int(360) }),
		"floats": build(func(w *writer) {
			plane(w)
			w.int(1) // one proxy: ResW, ResH, then its weight count
			w.int(8)
			w.int(8)
			w.int(1 << 26)
		}),
		"dense": build(func(w *writer) {
			plane(w)
			w.int(0)  // proxies
			w.int(0)  // window sizes
			w.int(16) // recurrent model: hidden size, then Wz's in, out, act
			w.int(1 << 16)
			w.int(1 << 16)
			w.int(0)
		}),
		"clusters": build(func(w *writer) {
			plane(w)
			w.int(0)
			w.int(0)
			w.int(-1) // no recurrent model
			w.int(-1) // no pair model
			w.int(1 << 20)
		}),
	}
	for name, data := range bundles {
		if len(data) > 256 {
			t.Fatalf("%s: hostile bundle is %d bytes; it should be a few dozen", name, len(data))
		}
		sys := core.NewSystem(ds)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := LoadModels(bytes.NewReader(data), sys)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: truncated bundle loaded without error", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
			t.Errorf("%s: a %d-byte bundle made the loader allocate %d bytes", name, len(data), got)
		}
	}
}

// framesTrack is track 7 with one detection per given frame index.
func framesTrack(frames ...int) [][]*query.Track {
	tr := &query.Track{ID: 7, Category: "car"}
	for _, f := range frames {
		tr.Dets = append(tr.Dets, detect.Detection{FrameIdx: f, Box: geom.Rect{X: 10, Y: 10, W: 40, H: 20}, Score: 1, Category: "car"})
	}
	return [][]*query.Track{{tr}}
}

// hostileFrameIndexTracks is the file the frame-index rule exists for: two
// detections, at frames 0 and 1<<40, under a header that gives no clip
// length. The store keeps frame indices as int32 and DwellTime loops from a
// track's first frame to its last.
func hostileFrameIndexTracks() [][]*query.Track { return framesTrack(0, 1<<40) }

// TestReadersRejectHostileFrameIndices: both readers refuse a detection
// whose frame index is negative, below its predecessor's, at or past the
// header's clip length, or past the int32 range when the header gives no
// length, with an error that names the track; equal neighbours and the last
// frame of the clip are accepted.
func TestReadersRejectHostileFrameIndices(t *testing.T) {
	for _, tc := range []struct {
		name     string
		frames   int // header's clip length
		dets     []int
		accepted bool
	}{
		{"negative", 100, []int{-1, 3}, false},
		{"decreasing", 100, []int{5, 4}, false},
		{"at clip length", 100, []int{0, 100}, false},
		{"past int32 without a clip length", 0, []int{0, math.MaxInt32 + 1}, false},
		{"1<<40 without a clip length", 0, []int{0, 1 << 40}, false},
		{"repeated and last frame", 100, []int{0, 0, 99, 99}, true},
		{"int32 range without a clip length", 0, []int{0, math.MaxInt32}, true},
	} {
		perClip := framesTrack(tc.dets...)
		var trk, seg bytes.Buffer
		if err := WriteTracksV2(&trk, perClip, TrackMeta{FPS: 10, Frames: tc.frames, Dataset: "d"}); err != nil {
			t.Fatal(err)
		}
		if err := WriteSegment(&seg, SegmentMeta{Dataset: "d", ID: "seg-00000", FPS: 10, Frames: tc.frames}, perClip); err != nil {
			t.Fatal(err)
		}
		_, _, trkErr := ReadTracksAuto(bytes.NewReader(trk.Bytes()))
		_, _, segErr := ReadSegment(bytes.NewReader(seg.Bytes()))
		for reader, err := range map[string]error{"ReadTracksAuto": trkErr, "ReadSegment": segErr} {
			switch {
			case tc.accepted && err != nil:
				t.Errorf("%s: %s refused the file: %v", tc.name, reader, err)
			case !tc.accepted && (err == nil || !strings.Contains(err.Error(), "track 7")):
				t.Errorf("%s: %s returned %v, want an error naming track 7", tc.name, reader, err)
			}
		}
	}
}

// hostileClipLength is the clip length no header may give: every
// frame-level query loops over the clip's frames.
const hostileClipLength = 1 << 40

// TestReadersRejectHostileClipLength: both readers refuse a header whose
// clip length is negative or above maxFrames, with an error that names the
// value, and accept no length (0) and maxFrames itself. The files hold one
// empty clip, so no detection's frame index can refuse them instead.
func TestReadersRejectHostileClipLength(t *testing.T) {
	for _, tc := range []struct {
		frames   int
		accepted bool
	}{{-1, false}, {maxFrames + 1, false}, {hostileClipLength, false}, {0, true}, {maxFrames, true}} {
		var trk, seg bytes.Buffer
		if err := WriteTracksV2(&trk, [][]*query.Track{nil}, TrackMeta{FPS: 10, Frames: tc.frames, Dataset: "d"}); err != nil {
			t.Fatal(err)
		}
		if err := WriteSegment(&seg, SegmentMeta{Dataset: "d", ID: "seg-00000", FPS: 10, Frames: tc.frames}, [][]*query.Track{nil}); err != nil {
			t.Fatal(err)
		}
		_, _, trkErr := ReadTracksAuto(bytes.NewReader(trk.Bytes()))
		_, _, segErr := ReadSegment(bytes.NewReader(seg.Bytes()))
		for reader, err := range map[string]error{"ReadTracksAuto": trkErr, "ReadSegment": segErr} {
			switch {
			case tc.accepted && err != nil:
				t.Errorf("%d frames: %s refused the file: %v", tc.frames, reader, err)
			case !tc.accepted && (err == nil || !strings.Contains(err.Error(), fmt.Sprint(tc.frames))):
				t.Errorf("%d frames: %s returned %v, want an error naming the clip length", tc.frames, reader, err)
			}
		}
	}
}

// TestReadAllocsPerDetection bounds the heap allocations of decoding one
// detection to the growth of the detection slice, amortised: its numbers
// are decoded from a view into the reader's buffer, and a category equal
// to its track's shares the track's string. When each number was a
// make([]byte, 8) this read 11 per detection; with a string and its bytes
// allocated per category, 2.
func TestReadAllocsPerDetection(t *testing.T) {
	const dets = 2000
	tr := &query.Track{ID: 1, Category: "car"}
	for f := 0; f < dets; f++ {
		tr.Dets = append(tr.Dets, detect.Detection{
			FrameIdx: f, Box: geom.Rect{X: float64(f), Y: 10, W: 40, H: 20}, Score: 0.9, Category: "car",
		})
	}
	var buf bytes.Buffer
	if err := WriteTracksV2(&buf, [][]*query.Track{{tr}}, TrackMeta{FPS: 10}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := ReadTracksAuto(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / dets; per > 0.1 {
		t.Errorf("%.2f allocations per decoded detection, want at most 0.1", per)
	} else {
		t.Logf("%.2f allocations per decoded detection", per)
	}
}

// FuzzReadTracksAuto holds the track reader to its contract on arbitrary
// bytes: it never panics, and it returns either an error or a track set
// whose re-encoding reads back to the same bytes. Seeds are a valid file,
// truncations of it, a copy with a flipped checksum, the hostile-count
// headers, a detection at frame 1<<40 and a header clip length of 1<<40;
// the committed corpus is in testdata/fuzz/FuzzReadTracksAuto.
func FuzzReadTracksAuto(f *testing.F) {
	var buf bytes.Buffer
	meta := TrackMeta{FPS: 10, NomW: 640, NomH: 360, Frames: 100, Dataset: "caldot1"}
	if err := WriteTracksV2(&buf, sampleTracks(rand.New(rand.NewSource(3)), 3), meta); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, n := range []int{0, len(trackMagic), len(trackMagic) + 4, len(valid) / 2, len(valid) - 4, len(valid) - 1} {
		f.Add(valid[:n])
	}
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	for _, data := range hostileTrackFiles(f) {
		f.Add(data)
	}
	buf = bytes.Buffer{}
	if err := WriteTracksV2(&buf, hostileFrameIndexTracks(), TrackMeta{FPS: 10, Dataset: "d"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf = bytes.Buffer{}
	if err := WriteTracksV2(&buf, [][]*query.Track{nil}, TrackMeta{FPS: 10, Frames: hostileClipLength, Dataset: "d"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	encode := func(t *testing.T, perClip [][]*query.Track, meta *TrackMeta) []byte {
		var buf bytes.Buffer
		if err := WriteTracksV2(&buf, perClip, *meta); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		perClip, meta, err := ReadTracksAuto(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := encode(t, perClip, meta)
		perClip, meta, err = ReadTracksAuto(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoding of an accepted file does not read back: %v", err)
		}
		if second := encode(t, perClip, meta); !bytes.Equal(first, second) {
			t.Fatal("re-encoding of an accepted file does not round-trip")
		}
	})
}

// FuzzReadSegment holds the segment reader to the same contract: never a
// panic, and an error or a segment whose re-encoding reads back byte-equal.
// Seeds are a valid segment, truncations of it, a flipped checksum, the
// hostile-count bodies behind a segment header, a detection at frame 1<<40,
// a header clip length of 1<<40 and a 300 KB segment cut three bytes past
// the reader's first 64 KiB buffer; the committed corpus is in
// testdata/fuzz/FuzzReadSegment.
func FuzzReadSegment(f *testing.F) {
	for _, data := range segmentSeeds(f) {
		f.Add(data)
	}
	encode := func(t *testing.T, meta SegmentMeta, perClip [][]*query.Track) []byte {
		var buf bytes.Buffer
		if err := WriteSegment(&buf, meta, perClip); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, perClip, err := ReadSegment(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := encode(t, meta, perClip)
		meta, perClip, err = ReadSegment(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoding of an accepted segment does not read back: %v", err)
		}
		if second := encode(t, meta, perClip); !bytes.Equal(first, second) {
			t.Fatal("re-encoding of an accepted segment does not round-trip")
		}
	})
}

// segmentSeeds are FuzzReadSegment's seeds, named as their copies in the
// committed corpus are.
func segmentSeeds(t testing.TB) map[string][]byte {
	meta := SegmentMeta{Dataset: "caldot1", ID: "seg-00001", StartClip: 3, FPS: 10, NomW: 640, NomH: 360, Frames: 100}
	var buf bytes.Buffer
	if err := WriteSegment(&buf, meta, sampleTracks(rand.New(rand.NewSource(3)), 3)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	seeds := map[string][]byte{"valid": valid}
	for name, n := range map[string]int{
		"empty": 0, "truncated_magic": len(segmentMagic), "truncated_in_header": len(segmentMagic) + 14,
		"truncated_in_track": len(valid) / 2, "truncated_checksum": len(valid) - 1,
	} {
		seeds[name] = valid[:n]
	}
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)-1] ^= 0x01
	seeds["flipped_crc"] = flipped
	negative := meta
	negative.StartClip = -1
	buf.Reset()
	if err := WriteSegment(&buf, negative, nil); err != nil {
		t.Fatal(err)
	}
	seeds["negative_start_clip"] = append([]byte{}, buf.Bytes()...)
	hostile := hostileFiles(t, func(w *writer) {
		w.bytes([]byte(segmentMagic))
		w.u32(segmentVersion)
		w.str("d")
		w.str("seg-00000")
		for i := 0; i < 5; i++ { // StartClip, FPS, NomW, NomH, Frames
			w.int(0)
		}
	})
	for name, data := range hostile {
		seeds["hostile_"+name+"_count"] = data
	}
	buf = bytes.Buffer{}
	if err := WriteSegment(&buf, SegmentMeta{Dataset: "d", ID: "seg-00000", FPS: 10}, hostileFrameIndexTracks()); err != nil {
		t.Fatal(err)
	}
	seeds["hostile_frame_index"] = buf.Bytes()
	buf = bytes.Buffer{}
	if err := WriteSegment(&buf, SegmentMeta{Dataset: "d", ID: "seg-00000", FPS: 10, Frames: hostileClipLength}, [][]*query.Track{nil}); err != nil {
		t.Fatal(err)
	}
	seeds["hostile_clip_length"] = buf.Bytes()
	// A field straddles the reader's first buffer boundary and the file
	// ends three bytes past it.
	seeds["truncated_at_buffer"] = goldenSegment(t)[:bufSize+3]
	return seeds
}
