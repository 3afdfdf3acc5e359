package persist

import (
	"errors"
	"fmt"
	"io"
	"math"

	"otif/internal/core"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/nn"
	"otif/internal/proxy"
	"otif/internal/refine"
	"otif/internal/track"
	"otif/internal/video"
)

// modelMagic identifies a trained-model bundle file.
const modelMagic = "OTIFMDL1"

// Limits on a bundle's counts, which the loader reads ahead of the
// checksum and SaveModels refuses to exceed.
const (
	maxPlane       = 1 << 26 // background pixels
	maxProxies     = 64
	maxWindowSizes = 16
	maxClusters    = 1 << 20
	maxCenter      = 1 << 16 // points in a cluster center
	maxLayers      = 16      // layers in an MLP
	maxDenseDim    = 1 << 16 // a dense layer's inputs or outputs
)

// SaveModels serializes a trained system's artifacts: theta_best, the
// background model, the proxy models, the window-size set, the recurrent
// and pairwise tracking models, and the refinement clusters. Dataset
// identity (name/spec/seed) is recorded so loading into a mismatched
// dataset fails loudly.
func SaveModels(dst io.Writer, sys *core.System) error {
	w := newWriter(dst)
	w.header(modelMagic)
	w.str(sys.DS.Name)
	w.int(sys.DS.Spec.Clips)
	w.f64(sys.DS.Spec.ClipSeconds)

	writeConfig(w, sys.Best)

	// Background frame.
	bg := sys.Background.Frame()
	if bg.W <= 0 || bg.H <= 0 || bg.W*bg.H > maxPlane || len(bg.Pix) != bg.W*bg.H {
		w.fail(fmt.Errorf("persist: background %dx%d with %d pixels, want 1 to %d and one per position", bg.W, bg.H, len(bg.Pix), maxPlane))
	}
	w.int(bg.W)
	w.int(bg.H)
	w.int(bg.NomW)
	w.int(bg.NomH)
	w.bytes(bg.Pix)

	// Proxy models.
	w.count("proxies", len(sys.Proxies), maxProxies)
	for _, m := range sys.Proxies {
		w.int(m.ResW)
		w.int(m.ResH)
		w.floats(m.LR.W)
		w.f64(m.LR.B)
	}

	// Window sizes (beyond the implicit full frame).
	w.count("window sizes", len(sys.WindowSizes), maxWindowSizes)
	for _, s := range sys.WindowSizes {
		w.int(s[0])
		w.int(s[1])
	}

	// Tracking models.
	writeRecurrent(w, sys.Recurrent)
	writePair(w, sys.Pair)

	// Refinement clusters.
	if sys.Refiner == nil {
		w.int(-1)
	} else {
		w.count("refinement clusters", len(sys.Refiner.Clusters), maxClusters)
		for _, c := range sys.Refiner.Clusters {
			w.int(c.Size)
			w.count("cluster center points", len(c.Center), maxCenter)
			for _, p := range c.Center {
				w.f64(p.X)
				w.f64(p.Y)
			}
		}
	}
	return w.finish()
}

// LoadModels restores a trained system over a freshly built dataset
// instance. The dataset must match the one the bundle was trained on.
func LoadModels(src io.Reader, sys *core.System) error {
	r := newReader(src)
	if err := r.header(modelMagic); err != nil {
		return err
	}
	name := r.str()
	clips := r.int()
	clipSec := r.f64()
	if r.err != nil {
		return r.err
	}
	if name != sys.DS.Name || clips != sys.DS.Spec.Clips || clipSec != sys.DS.Spec.ClipSeconds {
		return fmt.Errorf("persist: bundle trained on %s (%d x %gs), dataset is %s (%d x %gs)",
			name, clips, clipSec, sys.DS.Name, sys.DS.Spec.Clips, sys.DS.Spec.ClipSeconds)
	}

	best, err := readConfig(r)
	if err != nil {
		return err
	}
	sys.Best = best

	bw, bh := r.int(), r.int()
	nomW, nomH := r.int(), r.int()
	if r.err != nil || bw <= 0 || bh <= 0 || bw*bh > maxPlane {
		return badLen(r, bw*bh)
	}
	pix := r.bytes(bw * bh)
	if r.err != nil {
		return r.err
	}
	frame := video.NewFrame(bw, bh, nomW, nomH)
	copy(frame.Pix, pix)
	sys.Background = detect.NewBackgroundModel(frame)

	nProxies := r.int()
	if r.err != nil || nProxies < 0 || nProxies > maxProxies {
		return badLen(r, nProxies)
	}
	if best.UseProxy && (best.ProxyIdx < 0 || best.ProxyIdx >= nProxies) {
		return fmt.Errorf("persist: theta_best ProxyIdx %d is not one of the bundle's %d proxies", best.ProxyIdx, nProxies)
	}
	// A proxy's resolution and a window's size are nominal pixel extents:
	// at least one pixel and at most the frame.
	fits := func(w, h int) bool { return w >= 1 && h >= 1 && w <= nomW && h <= nomH }
	sys.Proxies = make([]*proxy.Model, nProxies)
	for i := range sys.Proxies {
		resW, resH := r.int(), r.int()
		if r.err == nil && !fits(resW, resH) {
			return fmt.Errorf("persist: proxy %d resolution %dx%d outside 1x1..%dx%d", i, resW, resH, nomW, nomH)
		}
		lr := &nn.LogReg{W: nn.Vec(r.floats()), B: r.f64()}
		if r.err != nil {
			return r.err
		}
		m := proxy.FromWeights(resW, resH, lr)
		if err := m.Validate(); err != nil {
			return fmt.Errorf("persist: proxy %d: %w", i, err)
		}
		sys.Proxies[i] = m
	}

	nSizes := r.int()
	if r.err != nil || nSizes < 0 || nSizes > maxWindowSizes {
		return badLen(r, nSizes)
	}
	sys.WindowSizes = make([][2]int, nSizes)
	for i := range sys.WindowSizes {
		sys.WindowSizes[i] = [2]int{r.int(), r.int()}
		if ws := sys.WindowSizes[i]; r.err == nil && !fits(ws[0], ws[1]) {
			return fmt.Errorf("persist: window size %d is %dx%d, outside 1x1..%dx%d", i, ws[0], ws[1], nomW, nomH)
		}
	}

	if sys.Recurrent, err = readRecurrent(r, sys); err != nil {
		return err
	}
	if sys.Pair, err = readPair(r, sys); err != nil {
		return err
	}

	nClusters := r.int()
	if r.err != nil {
		return r.err
	}
	if nClusters < 0 {
		sys.Refiner = nil
	} else {
		if nClusters > maxClusters {
			return badLen(r, nClusters)
		}
		clusters := make([]*refine.Cluster, 0, min(nClusters, maxPrealloc))
		for i := 0; i < nClusters; i++ {
			c := &refine.Cluster{Size: r.int()}
			n := r.int()
			if r.err != nil || n < 0 || n > maxCenter {
				return badLen(r, n)
			}
			c.Center = make(geom.Path, 0, min(n, maxPrealloc))
			for k := 0; k < n; k++ {
				p := geom.Point{X: r.f64(), Y: r.f64()}
				if r.err != nil {
					return r.err
				}
				c.Center = append(c.Center, p)
			}
			if err := c.Validate(); err != nil {
				return fmt.Errorf("persist: refinement cluster %d: %w", i, err)
			}
			clusters = append(clusters, c)
		}
		sys.Refiner = refine.FromClusters(clusters, refine.DefaultDBSCANOptions())
	}
	return r.verifyChecksum()
}

func writeConfig(w *writer, c core.Config) {
	w.str(string(c.Arch))
	w.f64(c.DetScale)
	w.f64(c.DetConf)
	w.boolean(c.UseProxy)
	w.int(c.ProxyIdx)
	w.f64(c.ProxyThresh)
	w.int(c.Gap)
	w.str(string(c.Tracker))
	w.boolean(c.VariableGap)
	w.boolean(c.Refine)
}

func readConfig(r *reader) (core.Config, error) {
	c := core.Config{
		Arch:        detect.Arch(r.str()),
		DetScale:    r.f64(),
		DetConf:     r.f64(),
		UseProxy:    r.boolean(),
		ProxyIdx:    r.int(),
		ProxyThresh: r.f64(),
		Gap:         r.int(),
		Tracker:     core.TrackerKind(r.str()),
		VariableGap: r.boolean(),
		Refine:      r.boolean(),
	}
	if r.err != nil {
		return c, r.err
	}
	return c, checkConfig(c)
}

// maxGap bounds a stored sampling gap; the tuner's ladder stops at 32.
const maxGap = 64

// checkConfig refuses a theta_best no pipeline can run: loaded, it would
// panic later inside a clip worker. ProxyIdx is checked by LoadModels, once
// it knows how many proxies the bundle holds.
func checkConfig(c core.Config) error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case c.Arch != detect.ArchYOLO && c.Arch != detect.ArchRCNN:
		return fmt.Errorf("persist: theta_best Arch %q is not a detector architecture", c.Arch)
	case c.Tracker != core.TrackerSORT && c.Tracker != core.TrackerRecurrent && c.Tracker != core.TrackerPair:
		return fmt.Errorf("persist: theta_best Tracker %q is not a tracker", c.Tracker)
	case c.Gap < 1 || c.Gap > maxGap:
		return fmt.Errorf("persist: theta_best Gap %d outside [1, %d]", c.Gap, maxGap)
	case !(c.DetScale > 0 && c.DetScale <= 1):
		return fmt.Errorf("persist: theta_best DetScale %v outside (0, 1]", c.DetScale)
	case !finite(c.DetConf):
		return fmt.Errorf("persist: theta_best DetConf %v is not finite", c.DetConf)
	case !finite(c.ProxyThresh):
		return fmt.Errorf("persist: theta_best ProxyThresh %v is not finite", c.ProxyThresh)
	}
	return nil
}

func writeDense(w *writer, d *nn.Dense) {
	if d.In <= 0 || d.Out <= 0 || d.In > maxDenseDim || d.Out > maxDenseDim || len(d.W) != d.In*d.Out {
		w.fail(fmt.Errorf("persist: dense layer %dx%d with %d weights, want 1 to %d a side and one per pair", d.In, d.Out, len(d.W), maxDenseDim))
		return
	}
	w.int(d.In)
	w.int(d.Out)
	w.int(int(d.Act))
	// The on-disk format is one row per record; the in-memory layout is a
	// flat row-major vector, so rows are views into it.
	for i := 0; i < d.Out; i++ {
		w.floats(d.Row(i))
	}
	w.floats(d.B)
}

func readDense(r *reader) (*nn.Dense, error) {
	in, out := r.int(), r.int()
	act := nn.Activation(r.int())
	if r.err != nil || in <= 0 || out <= 0 || in > maxDenseDim || out > maxDenseDim {
		return nil, badLen(r, in*out)
	}
	d := &nn.Dense{In: in, Out: out, Act: act, W: make(nn.Vec, 0, min(in*out, maxPrealloc))}
	for i := 0; i < out; i++ {
		row := r.floats()
		if r.err != nil || len(row) != in {
			return nil, badLen(r, len(row))
		}
		d.W = append(d.W, row...)
	}
	d.B = nn.Vec(r.floats())
	return d, r.err
}

func writeMLP(w *writer, m *nn.MLP) {
	if len(m.Layers) == 0 {
		w.fail(errors.New("persist: an MLP without layers"))
	}
	w.count("MLP layers", len(m.Layers), maxLayers)
	for _, l := range m.Layers {
		writeDense(w, l)
	}
}

func readMLP(r *reader) (*nn.MLP, error) {
	n := r.int()
	if r.err != nil || n <= 0 || n > maxLayers {
		return nil, badLen(r, n)
	}
	m := &nn.MLP{Layers: make([]*nn.Dense, n)}
	for i := range m.Layers {
		var err error
		if m.Layers[i], err = readDense(r); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func writeRecurrent(w *writer, m *track.RecurrentModel) {
	if m == nil {
		w.int(-1)
		return
	}
	w.int(m.Hidden)
	writeDense(w, m.GRU.Wz)
	writeDense(w, m.GRU.Wr)
	writeDense(w, m.GRU.Wc)
	writeMLP(w, m.Match)
}

func readRecurrent(r *reader, sys *core.System) (*track.RecurrentModel, error) {
	hidden := r.int()
	if r.err != nil {
		return nil, r.err
	}
	if hidden < 0 {
		return nil, nil
	}
	m := &track.RecurrentModel{
		Hidden: hidden,
		GRU:    &nn.GRUCell{InSize: track.FeatDim, HiddenSize: hidden},
		NomW:   sys.DS.Cfg.NomW,
		NomH:   sys.DS.Cfg.NomH,
		FPS:    sys.DS.Cfg.FPS,
	}
	var err error
	if m.GRU.Wz, err = readDense(r); err != nil {
		return nil, err
	}
	if m.GRU.Wr, err = readDense(r); err != nil {
		return nil, err
	}
	if m.GRU.Wc, err = readDense(r); err != nil {
		return nil, err
	}
	if m.Match, err = readMLP(r); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return m, nil
}

func writePair(w *writer, m *track.PairModel) {
	if m == nil {
		w.int(-1)
		return
	}
	w.int(1)
	writeMLP(w, m.Match)
}

func readPair(r *reader, sys *core.System) (*track.PairModel, error) {
	tag := r.int()
	if r.err != nil {
		return nil, r.err
	}
	if tag < 0 {
		return nil, nil
	}
	m := &track.PairModel{
		NomW: sys.DS.Cfg.NomW,
		NomH: sys.DS.Cfg.NomH,
		FPS:  sys.DS.Cfg.FPS,
	}
	var err error
	if m.Match, err = readMLP(r); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return m, nil
}
