package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"otif/internal/persist"
	"otif/internal/query"
)

// SegmentExt is the file extension for shipped segment files.
const SegmentExt = ".otifseg"

// ExportSegments writes a dataset's clips as sealed segment files of at
// most clipsPerSeg clips each (<= 0 means one segment) into dir, named
// "<id>.otifseg" with conventional ids. It returns the written paths in
// segment order. The encoding is deterministic, so two replicas exporting
// the same track set produce identical files.
func ExportSegments(dir, dataset string, ctx query.Context, perClip [][]*query.Track, clipsPerSeg int) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if clipsPerSeg <= 0 {
		clipsPerSeg = len(perClip)
	}
	var paths []string
	for start, n := 0, 0; start < len(perClip); start, n = start+clipsPerSeg, n+1 {
		end := start + clipsPerSeg
		if end > len(perClip) {
			end = len(perClip)
		}
		meta := persist.SegmentMeta{
			Dataset:   dataset,
			ID:        SegmentID(n),
			StartClip: start,
			FPS:       ctx.FPS,
			NomW:      ctx.NomW,
			NomH:      ctx.NomH,
			Frames:    ctx.Frames,
		}
		path := filepath.Join(dir, meta.ID+SegmentExt)
		if err := writeSegmentFile(path, meta, perClip[start:end]); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

func writeSegmentFile(path string, meta persist.SegmentMeta, perClip [][]*query.Track) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := persist.WriteSegment(f, meta, perClip); err != nil {
		f.Close()
		return fmt.Errorf("write segment %s: %w", path, err)
	}
	return f.Close()
}

// OpenSegmentsDir loads every "*.otifseg" file in dir and assembles them
// into one Sharded per dataset, validating that each dataset's segments
// tile its clip range contiguously and agree on clip geometry. cache is
// shared across the returned shard sets (nil disables result caching).
// This is what a replica serves from a directory of shipped segments.
func OpenSegmentsDir(dir string, cache *Cache) (map[string]*Sharded, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+SegmentExt))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	type loaded struct {
		meta    persist.SegmentMeta
		perClip [][]*query.Track
	}
	byDataset := map[string][]loaded{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		meta, perClip, err := persist.ReadSegment(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("read segment %s: %w", path, err)
		}
		if meta.Dataset == "" {
			// A registry entry needs a name; "" selects the default dataset.
			return nil, fmt.Errorf("read segment %s: header carries no dataset name", path)
		}
		byDataset[meta.Dataset] = append(byDataset[meta.Dataset], loaded{meta, perClip})
	}
	out := make(map[string]*Sharded, len(byDataset))
	for dataset, ls := range byDataset {
		sort.Slice(ls, func(a, b int) bool { return ls[a].meta.StartClip < ls[b].meta.StartClip })
		ctx := query.Context{
			FPS:    ls[0].meta.FPS,
			NomW:   ls[0].meta.NomW,
			NomH:   ls[0].meta.NomH,
			Frames: ls[0].meta.Frames,
		}
		segs := make([]*Segment, len(ls))
		for i, l := range ls {
			if got := (query.Context{FPS: l.meta.FPS, NomW: l.meta.NomW, NomH: l.meta.NomH, Frames: l.meta.Frames}); got != ctx {
				return nil, fmt.Errorf("segment %q of dataset %q has context %+v, want %+v", l.meta.ID, dataset, got, ctx)
			}
			segs[i] = NewSegment(l.meta.ID, l.meta.StartClip, l.perClip, ctx)
		}
		sh, err := NewSharded(dataset, ctx, segs, cache)
		if err != nil {
			return nil, fmt.Errorf("dataset %q: %w", dataset, err)
		}
		out[dataset] = sh
	}
	return out, nil
}
