package otif

import (
	"fmt"
	"io"

	"otif/internal/persist"
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

// ExportSegments saves the track set into dir, creating it if needed, as
// sealed segment files (OTIFSEG1, "<seg-id>.otifseg"), cut every
// store.DefaultSealClips clips as a live store seals. The files are
// self-describing and deterministic: LoadTrackSets reads them back, and a
// replica started with otifd -segments-dir over them answers every
// /v1/query/* request byte-identically to the exporting process. The
// segment files an older, longer export left in dir past this one's last
// are removed once it has written its own. It returns the written paths in segment order.
func (ts *TrackSet) ExportSegments(dir string) ([]string, error) {
	return store.ExportSegments(dir, ts.Manifest().Dataset, ts.Context(), ts.perClip(), store.DefaultSealClips)
}

// LoadTrackSets loads the segment files in dir written by ExportSegments
// (or sealed by a live store) and returns their track sets by the dataset
// name in their headers. Clip geometry comes from the headers too, so
// nothing but the directory is needed. It returns ErrNoSegments for a
// directory that holds no segment file, and an error naming the file for
// one that does not decode or for segments that do not tile their
// dataset's clips.
func LoadTrackSets(dir string) (map[string]*TrackSet, error) {
	shards, err := store.OpenSegmentsDir(dir, store.NewCache())
	if err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoSegments, dir)
	}
	sets := make(map[string]*TrackSet, len(shards))
	for name, sh := range shards {
		sets[name] = &TrackSet{Querier: sh}
	}
	return sets, nil
}
