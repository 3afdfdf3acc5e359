package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"otif/internal/parallel"
	"otif/internal/persist"
	"otif/internal/query"
)

// SegmentExt is the file extension for shipped segment files.
const SegmentExt = ".otifseg"

// ExportSegments writes a dataset's clips as sealed segment files of at
// most clipsPerSeg clips each (<= 0 means one segment) into dir, named
// "<id>.otifseg" with conventional ids, on the worker pool. Each file is
// written as "<id>.otifseg.tmp" and none is renamed into place before all
// are complete, so an export that fails leaves dir as it found it. Once
// every file is in place it removes the files an older, longer export
// named past the last of them, so the directory opens as this export and
// not as its tiles over the older one; a segment file under any other
// name, such as another dataset's renamed to sit beside these, stays. It
// returns the written paths in segment order, or the error
// of the first segment in that order that failed. The encoding is
// deterministic, so two replicas exporting the same track set produce
// identical files, at any worker count.
func ExportSegments(dir, dataset string, ctx query.Context, perClip [][]*query.Track, clipsPerSeg int) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if clipsPerSeg <= 0 {
		clipsPerSeg = len(perClip)
	}
	n := 0
	if len(perClip) > 0 {
		n = (len(perClip) + clipsPerSeg - 1) / clipsPerSeg
	}
	paths := make([]string, n)
	errs := parallel.Map(n, func(i int) error {
		start := i * clipsPerSeg
		end := min(start+clipsPerSeg, len(perClip))
		meta := persist.SegmentMeta{
			Dataset:   dataset,
			ID:        SegmentID(i),
			StartClip: start,
			FPS:       ctx.FPS,
			NomW:      ctx.NomW,
			NomH:      ctx.NomH,
			Frames:    ctx.Frames,
		}
		paths[i] = filepath.Join(dir, meta.ID+SegmentExt)
		return writeSegmentTemp(paths[i], meta, perClip[start:end])
	})
	for _, err := range errs {
		if err != nil {
			for _, p := range paths {
				os.Remove(p + ".tmp")
			}
			return nil, err
		}
	}
	for _, p := range paths {
		if err := os.Rename(p+".tmp", p); err != nil {
			return nil, fmt.Errorf("write segment %s: %w", p, err)
		}
	}
	if err := removeStaleSegments(dir, n); err != nil {
		return nil, err
	}
	return paths, nil
}

// removeStaleSegments removes the segment files in dir named as
// ExportSegments names the n-th segment and later ones: what an older
// export of more segments leaves behind an export of n.
func removeStaleSegments(dir string, n int) error {
	found, err := segmentFiles(dir)
	if err != nil {
		return err
	}
	for _, p := range found {
		stem := strings.TrimSuffix(filepath.Base(p), SegmentExt)
		k, err := strconv.Atoi(strings.TrimPrefix(stem, "seg-"))
		if err != nil || k < n || SegmentID(k) != stem {
			continue
		}
		if err := os.Remove(p); err != nil {
			return fmt.Errorf("remove stale segment: %w", err)
		}
	}
	return nil
}

// segmentFiles lists the "*.otifseg" files in dir in name order, none
// when dir does not exist. It reads the directory rather than matching a
// pattern built from its name, so a dir named "data[12]" lists itself and
// not data1 and data2.
func segmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), SegmentExt) {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	return paths, nil
}

// writeSegmentTemp writes the segment to path+".tmp", for ExportSegments
// to rename once every segment is complete: a process stopped midway
// leaves temporary files, which OpenSegmentsDir does not read, never a
// truncated segment. A write that fails removes its temporary file.
func writeSegmentTemp(path string, meta persist.SegmentMeta, perClip [][]*query.Track) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("write segment %s: %w", path, err)
	}
	err = persist.WriteSegment(f, meta, perClip)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("write segment %s: %w", path, err)
	}
	return nil
}

// OpenSegmentsDir loads every "*.otifseg" file in dir and assembles them
// into one Sharded per dataset, validating that each dataset's segments
// tile its clip range contiguously and agree on clip geometry. cache is
// shared across the returned shard sets (nil disables result caching).
// This is what a replica serves from a directory of shipped segments.
//
// The files are read and indexed on the worker pool; grouping and
// validation then run in sorted path order, so the error reported is the
// same at any worker count.
func OpenSegmentsDir(dir string, cache *Cache) (map[string]*Sharded, error) {
	paths, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	type loaded struct {
		meta persist.SegmentMeta
		seg  *Segment
		err  error
	}
	ls := parallel.Map(len(paths), func(i int) loaded {
		meta, perClip, err := readSegmentFile(paths[i])
		if err != nil {
			return loaded{err: fmt.Errorf("read segment %s: %w", paths[i], err)}
		}
		if meta.Dataset == "" {
			// A registry entry needs a name; "" selects the default dataset.
			return loaded{err: fmt.Errorf("read segment %s: header carries no dataset name", paths[i])}
		}
		return loaded{meta: meta, seg: NewSegment(meta.ID, meta.StartClip, perClip, metaContext(meta))}
	})
	// Datasets in the order their first file sorts, each holding indices
	// into ls in path order.
	var names []string
	byDataset := map[string][]int{}
	for i, l := range ls {
		if l.err != nil {
			return nil, l.err
		}
		if _, ok := byDataset[l.meta.Dataset]; !ok {
			names = append(names, l.meta.Dataset)
		}
		byDataset[l.meta.Dataset] = append(byDataset[l.meta.Dataset], i)
	}
	out := make(map[string]*Sharded, len(names))
	for _, dataset := range names {
		idx := byDataset[dataset]
		sort.SliceStable(idx, func(a, b int) bool { return ls[idx[a]].meta.StartClip < ls[idx[b]].meta.StartClip })
		ctx := metaContext(ls[idx[0]].meta)
		segs := make([]*Segment, len(idx))
		for k, i := range idx {
			if got := metaContext(ls[i].meta); got != ctx {
				return nil, fmt.Errorf("segment %q of dataset %q has context %+v, want %+v", ls[i].meta.ID, dataset, got, ctx)
			}
			segs[k] = ls[i].seg
		}
		sh, err := NewSharded(dataset, ctx, segs, cache)
		if err != nil {
			return nil, fmt.Errorf("dataset %q: %w", dataset, err)
		}
		out[dataset] = sh
	}
	return out, nil
}

func readSegmentFile(path string) (persist.SegmentMeta, [][]*query.Track, error) {
	f, err := os.Open(path)
	if err != nil {
		return persist.SegmentMeta{}, nil, err
	}
	defer f.Close()
	return persist.ReadSegment(f)
}

// metaContext is the clip geometry a segment header records.
func metaContext(m persist.SegmentMeta) query.Context {
	return query.Context{FPS: m.FPS, NomW: m.NomW, NomH: m.NomH, Frames: m.Frames}
}
