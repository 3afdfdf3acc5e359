package otif

import (
	"io"

	"otif/internal/persist"
	"otif/internal/query"
	"otif/internal/store"
)

// SaveModels writes the pipeline's trained model bundle (theta_best,
// background model, proxy models, window sizes, tracking models,
// refinement clusters) in OTIF's versioned, checksummed binary format. It
// returns ErrNotTrained if Train (or LoadModels) has not run.
func (p *Pipeline) SaveModels(w io.Writer) error {
	if p.sys.Recurrent == nil {
		return ErrNotTrained
	}
	return persist.SaveModels(w, p.sys)
}

// LoadModels restores a previously saved model bundle into this pipeline,
// replacing Train. The pipeline must have been opened on the same dataset
// (name and set sizes) the bundle was trained on; a loaded pipeline
// produces bit-identical extraction results to the one that saved it.
func (p *Pipeline) LoadModels(r io.Reader) error {
	return persist.LoadModels(r, p.sys)
}

// WriteTo serializes the track set in OTIF's self-describing binary track
// format (v2): the header records frame rate, nominal geometry, frames
// per clip and dataset name, so the file reloads with ReadTrackSet and
// zero positional arguments. n is the number of bytes written.
func (ts *TrackSet) WriteTo(w io.Writer) (n int64, err error) {
	cw := &countWriter{w: w}
	err = persist.WriteTracksV2(cw, ts.PerClip, persist.TrackMeta{
		FPS:     ts.ctx.FPS,
		NomW:    ts.ctx.NomW,
		NomH:    ts.ctx.NomH,
		Frames:  ts.ctx.Frames,
		Dataset: ts.Dataset,
	})
	return cw.n, err
}

// ExportSegments writes the track set as sealed segment files (OTIFSEG1,
// one "<seg-id>.otifseg" per clipsPerSegment clips; <= 0 writes one
// segment) into dir, creating it if needed. The files are self-describing
// and deterministic: a replica started with otifd -segments-dir over them
// answers every /v1/query/* request byte-identically to the exporting
// process. It returns the written paths in segment order.
func (ts *TrackSet) ExportSegments(dir string, clipsPerSegment int) ([]string, error) {
	return store.ExportSegments(dir, ts.Dataset, ts.ctx, ts.PerClip, clipsPerSegment)
}

// TrackSetOption adjusts how a stored track set is loaded. Options exist
// for legacy v1 files, whose headers carry no clip geometry; v2 files are
// self-describing and need none. An explicitly passed option overrides the
// file header either way.
type TrackSetOption func(*trackSetConfig)

type trackSetConfig struct {
	fps, nomW, nomH, frames int
	dataset                 string
}

// WithFPS supplies the clip frame rate for files whose header lacks it.
func WithFPS(fps int) TrackSetOption {
	return func(c *trackSetConfig) { c.fps = fps }
}

// WithGeometry supplies the nominal frame dimensions.
func WithGeometry(nomW, nomH int) TrackSetOption {
	return func(c *trackSetConfig) { c.nomW, c.nomH = nomW, nomH }
}

// WithFramesPerClip supplies the clip length in frames.
func WithFramesPerClip(frames int) TrackSetOption {
	return func(c *trackSetConfig) { c.frames = frames }
}

// WithDatasetName labels the loaded set with its dataset name.
func WithDatasetName(name string) TrackSetOption {
	return func(c *trackSetConfig) { c.dataset = name }
}

// ReadTrackSet loads a stored track set. Files written by WriteTo (format
// v2) are self-describing: the clip geometry comes from the file header
// and no options are needed. Legacy v1 files carry no header metadata;
// pass WithFPS / WithGeometry / WithFramesPerClip so frame-window and
// region queries know the clip geometry (loading succeeds without them,
// but frame sweeps see zero-length clips). Explicit options override the
// header.
func ReadTrackSet(r io.Reader, opts ...TrackSetOption) (*TrackSet, error) {
	perClip, meta, err := persist.ReadTracksAuto(r)
	if err != nil {
		return nil, err
	}
	var cfg trackSetConfig
	if meta != nil {
		cfg = trackSetConfig{
			fps: meta.FPS, nomW: meta.NomW, nomH: meta.NomH,
			frames: meta.Frames, dataset: meta.Dataset,
		}
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return &TrackSet{
		PerClip: perClip,
		Dataset: cfg.dataset,
		ctx: query.Context{
			FPS: cfg.fps, NomW: cfg.nomW, NomH: cfg.nomH, Frames: cfg.frames,
		},
	}, nil
}

// ReadTrackSetFor loads a stored track set with the pipeline's clip
// geometry (overriding any file header, so the set always matches the
// pipeline's datasets).
func (p *Pipeline) ReadTrackSetFor(r io.Reader) (*TrackSet, error) {
	ctx := p.sys.Ctx()
	return ReadTrackSet(r,
		WithFPS(ctx.FPS), WithGeometry(ctx.NomW, ctx.NomH),
		WithFramesPerClip(ctx.Frames), WithDatasetName(p.sys.DS.Name))
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
