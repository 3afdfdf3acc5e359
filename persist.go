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
// format: the header records frame rate, nominal geometry, frames per clip
// and dataset name, so the file reloads with ReadTrackSet and no further
// arguments. n is the number of bytes written.
func (ts *TrackSet) WriteTo(w io.Writer) (n int64, err error) {
	cw := &countWriter{w: w}
	ctx := ts.Context()
	err = persist.WriteTracksV2(cw, ts.perClip(), persist.TrackMeta{
		FPS:     ctx.FPS,
		NomW:    ctx.NomW,
		NomH:    ctx.NomH,
		Frames:  ctx.Frames,
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
	return store.ExportSegments(dir, ts.Dataset, ts.Context(), ts.perClip(), clipsPerSegment)
}

// ReadTrackSet loads a track set written by WriteTo. The file is
// self-describing: clip geometry and dataset name come from its header.
func ReadTrackSet(r io.Reader) (*TrackSet, error) {
	perClip, meta, err := persist.ReadTracksAuto(r)
	if err != nil {
		return nil, err
	}
	ctx := query.Context{FPS: meta.FPS, NomW: meta.NomW, NomH: meta.NomH, Frames: meta.Frames}
	return &TrackSet{Querier: store.New(perClip, ctx), Dataset: meta.Dataset}, nil
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
