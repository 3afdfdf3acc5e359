package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"otif/internal/detect"
	"otif/internal/parallel"
	"otif/internal/persist"
	"otif/internal/query"
)

// TestExportOpenRoundtrip exports a dataset as segment files, opens the
// directory as a replica would, and asserts the reassembled Sharded
// answers queries bit-identically to the monolithic store it came from.
func TestExportOpenRoundtrip(t *testing.T) {
	perClip, mono, ctx, r := shardedFixture(5)
	dir := t.TempDir()

	paths, err := ExportSegments(dir, "caldot1", ctx, perClip, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 { // 7 clips at 3 per segment
		t.Fatalf("exported %d files, want 3: %v", len(paths), paths)
	}
	for i, p := range paths {
		if want := filepath.Join(dir, SegmentID(i)+SegmentExt); p != want {
			t.Errorf("path %d = %q, want %q", i, p, want)
		}
	}

	byDataset, err := OpenSegmentsDir(dir, NewCache())
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := byDataset["caldot1"]
	if !ok {
		t.Fatalf("OpenSegmentsDir datasets = %v, want caldot1", byDataset)
	}
	if sh.Clips() != mono.Clips() || sh.Context() != mono.Context() {
		t.Fatalf("replica geometry %d/%+v, want %d/%+v", sh.Clips(), sh.Context(), mono.Clips(), mono.Context())
	}
	region := randRegion(r, ctx)
	for round := 0; round < 2; round++ { // second round answers from cache
		for _, cat := range []string{"", "car", "nosuch"} {
			if got, want := sh.CountTracks(cat), mono.CountTracks(cat); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: replica CountTracks(%q) = %v, want %v", round, cat, got, want)
			}
			if got, want := sh.AvgVisible(cat), mono.AvgVisible(cat); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: replica AvgVisible(%q) diverged", round, cat)
			}
			if got, want := sh.DwellTime(cat, region), mono.DwellTime(cat, region); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: replica DwellTime(%q) diverged", round, cat)
			}
		}
		if got, want := sh.LimitQuery("car", query.CountPredicate{N: 2}, 3, 5), mono.LimitQuery("car", query.CountPredicate{N: 2}, 3, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: replica LimitQuery diverged", round)
		}
	}
}

// TestExportDeterministic pins that exporting the same track set twice
// produces byte-identical files — the property that lets replicas verify
// shipped segments and share result-cache key space — whether the files
// are written one at a time or four at once.
func TestExportDeterministic(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(6)
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	export := func(workers int) []string {
		parallel.SetWorkers(workers)
		paths, err := ExportSegments(t.TempDir(), "cam0", ctx, perClip, 2)
		if err != nil {
			t.Fatal(err)
		}
		return paths
	}
	pathsA, pathsB := export(1), export(4)
	if len(pathsA) != len(pathsB) {
		t.Fatalf("exports differ in file count: %d vs %d", len(pathsA), len(pathsB))
	}
	for i := range pathsA {
		a, err := os.ReadFile(pathsA[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pathsB[i])
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(pathsA[i]) != filepath.Base(pathsB[i]) || !bytes.Equal(a, b) {
			t.Errorf("segment %d differs between exports at 1 and 4 workers", i)
		}
	}
}

// TestOpenSegmentsDirMultiDataset serves two datasets from one directory,
// each reassembled independently.
func TestOpenSegmentsDirMultiDataset(t *testing.T) {
	perClipA, monoA, ctx, _ := shardedFixture(7)
	perClipB := perClipA[:4]
	monoB := New(perClipB, ctx)
	dir := t.TempDir()
	if _, err := ExportSegments(dir, "cam0", ctx, perClipA, 3); err != nil {
		t.Fatal(err)
	}
	// cam1's files would collide with cam0's conventional names, so export
	// to a subdirectory and move them up under distinct names.
	sub := filepath.Join(dir, "b")
	paths, err := ExportSegments(sub, "cam1", ctx, perClipB, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		if err := os.Rename(p, filepath.Join(dir, "cam1-"+SegmentID(i)+SegmentExt)); err != nil {
			t.Fatal(err)
		}
	}

	byDataset, err := OpenSegmentsDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(byDataset) != 2 {
		t.Fatalf("datasets = %d, want 2", len(byDataset))
	}
	if got := byDataset["cam0"].CountTracks("car"); !reflect.DeepEqual(got, monoA.CountTracks("car")) {
		t.Error("cam0 counts diverged")
	}
	if got := byDataset["cam1"].CountTracks("car"); !reflect.DeepEqual(got, monoB.CountTracks("car")) {
		t.Error("cam1 counts diverged")
	}
}

// TestOpenSegmentsDirRejectsGaps asserts a directory whose segments do not
// tile the clip range is rejected rather than served with silent holes.
func TestOpenSegmentsDirRejectsGaps(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(8)
	dir := t.TempDir()
	paths, err := ExportSegments(dir, "cam0", ctx, perClip, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(paths[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentsDir(dir, nil); err == nil {
		t.Error("directory with a missing middle segment accepted")
	}
}

// TestOpenSegmentsDirEmpty returns no datasets for an empty directory.
func TestOpenSegmentsDirEmpty(t *testing.T) {
	byDataset, err := OpenSegmentsDir(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(byDataset) != 0 {
		t.Errorf("empty dir produced datasets %v", byDataset)
	}
}

// TestOpenSegmentsDirRejectsUnnamedDataset: a segment whose header names no
// dataset has no registry entry to go under; the error names the file.
func TestOpenSegmentsDirRejectsUnnamedDataset(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(9)
	dir := t.TempDir()
	paths, err := ExportSegments(dir, "", ctx, perClip, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentsDir(dir, nil); err == nil || !strings.Contains(err.Error(), paths[0]) {
		t.Errorf("OpenSegmentsDir over an unnamed dataset's segment: err = %v, want one naming %s", err, paths[0])
	}
}

// FuzzOpenSegmentsDir holds the directory loader to its contract on
// arbitrary files: never a panic, and an error or a map with no unnamed
// dataset in which every shard set tiles its clip range. The two inputs are
// written as a.otifseg and (when not empty) b.otifseg. Seeds are valid and
// broken pairs, a track ending at frame 1<<40 and a header clip length of
// 1<<40; the committed corpus is in testdata/fuzz/FuzzOpenSegmentsDir.
func FuzzOpenSegmentsDir(f *testing.F) {
	for _, pair := range segmentsDirSeeds(f) {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "a"+SegmentExt), a, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(b) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "b"+SegmentExt), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		byDataset, err := OpenSegmentsDir(dir, nil)
		if err != nil {
			return
		}
		for name, sh := range byDataset {
			if name == "" {
				t.Fatal("a dataset without a name was accepted")
			}
			requireTiling(t, sh.Manifest())
		}
	})
}

// requireTiling fails unless the manifest's segments tile [0, Clips) in
// order.
func requireTiling(t *testing.T, m Manifest) {
	t.Helper()
	next := 0
	for _, si := range m.Segments {
		if si.StartClip != next {
			t.Fatalf("dataset %q: segment %q starts at clip %d, want %d", m.Dataset, si.ID, si.StartClip, next)
		}
		next += si.Clips
	}
	if m.Clips != next {
		t.Fatalf("dataset %q: %d clips reported, segments cover %d", m.Dataset, m.Clips, next)
	}
}

// segmentsDirSeeds are FuzzOpenSegmentsDir's seeds, named as their copies in
// the committed corpus are.
func segmentsDirSeeds(t testing.TB) map[string][2][]byte {
	// Four clips of one to three short tracks: the corpus holds each seed
	// twice over, so the files stay around a kilobyte.
	ctx := testCtx()
	r := rand.New(rand.NewSource(10))
	perClip := make([][]*query.Track, 4)
	for c := range perClip {
		perClip[c] = genTracks(r, 1+c%3, 12, ctx)
	}
	encode := func(meta persist.SegmentMeta, clips [][]*query.Track) []byte {
		meta.FPS, meta.NomW, meta.NomH = ctx.FPS, ctx.NomW, ctx.NomH
		if meta.Frames == 0 {
			meta.Frames = ctx.Frames
		}
		var buf bytes.Buffer
		if err := persist.WriteSegment(&buf, meta, clips); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := encode(persist.SegmentMeta{Dataset: "cam0", ID: SegmentID(0)}, perClip[:2])
	second := encode(persist.SegmentMeta{Dataset: "cam0", ID: SegmentID(1), StartClip: 2}, perClip[2:])
	return map[string][2][]byte{
		"one_segment":         {first, nil},
		"two_tile":            {first, second},
		"two_tile_reversed":   {second, first},
		"two_datasets":        {first, encode(persist.SegmentMeta{Dataset: "cam1", ID: SegmentID(0)}, perClip[2:])},
		"gap":                 {first, encode(persist.SegmentMeta{Dataset: "cam0", ID: SegmentID(1), StartClip: 3}, perClip[2:])},
		"overlap":             {first, first},
		"starts_late":         {second, nil},
		"negative_start":      {encode(persist.SegmentMeta{Dataset: "cam0", ID: SegmentID(0), StartClip: -1}, perClip[:2]), nil},
		"context_differs":     {first, encode(persist.SegmentMeta{Dataset: "cam0", ID: SegmentID(1), StartClip: 2, Frames: ctx.Frames + 1}, perClip[2:])},
		"unnamed_dataset":     {encode(persist.SegmentMeta{ID: SegmentID(0)}, perClip[:2]), nil},
		"no_clips":            {encode(persist.SegmentMeta{Dataset: "cam0", ID: SegmentID(0)}, nil), nil},
		"truncated":           {first[:len(first)/2], second},
		"not_a_segment":       {[]byte("OTIFTRK2"), nil},
		"empty_file":          {nil, nil},
		"hostile_frame_index": {encode(persist.SegmentMeta{Dataset: "cam0", ID: SegmentID(0)}, hostileFrameIndexClip(ctx)), nil},
		"hostile_clip_length": {encode(persist.SegmentMeta{Dataset: "cam0", ID: SegmentID(0), Frames: 1 << 40}, [][]*query.Track{nil}), nil},
	}
}

// hostileFrameIndexClip is one clip holding track 7 with detections at
// frames 0 and 1<<40.
func hostileFrameIndexClip(ctx query.Context) [][]*query.Track {
	r := rand.New(rand.NewSource(1))
	return [][]*query.Track{{{ID: 7, Category: "car", Dets: []detect.Detection{randDet(r, 0, ctx), randDet(r, 1<<40, ctx)}}}}
}

// TestOpenSegmentsDirRejectsHostileFrameIndex: a segment whose one track
// runs from frame 0 to frame 1<<40 used to open; its last frame then
// truncated to 0 in the int32 interval index (AvgVisible read 0.01) and a
// DwellTime over it looped a trillion times. The file is refused when read,
// with an error naming the file and the track.
func TestOpenSegmentsDirRejectsHostileFrameIndex(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	paths, err := ExportSegments(dir, "cam0", ctx, hostileFrameIndexClip(ctx), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenSegmentsDir(dir, nil)
	if err == nil || !strings.Contains(err.Error(), paths[0]) || !strings.Contains(err.Error(), "track 7") {
		t.Fatalf("OpenSegmentsDir over a track ending at frame 1<<40: err = %v, want one naming %s and track 7", err, paths[0])
	}
}

// TestOpenSegmentsDirRejectsHostileClipLength: a segment of one empty clip
// whose header gives a clip length of 1<<40 frames used to open, and every
// frame-level query over it then looped to that length (AvgVisible was
// still running after 5 s). The file is refused when read, with an error
// naming the file and the length.
func TestOpenSegmentsDirRejectsHostileClipLength(t *testing.T) {
	ctx := testCtx()
	ctx.Frames = 1 << 40
	dir := t.TempDir()
	paths, err := ExportSegments(dir, "cam0", ctx, [][]*query.Track{nil}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenSegmentsDir(dir, nil)
	if err == nil || !strings.Contains(err.Error(), paths[0]) || !strings.Contains(err.Error(), "1099511627776") {
		t.Fatalf("OpenSegmentsDir over a segment of 1<<40 frames: err = %v, want one naming %s and the length", err, paths[0])
	}
}

// bigSegment exports three clips of 60 tracks as one segment file of more
// than 128 KiB, so 64 KiB buffer boundaries fall inside it, and returns its
// tracks, path and bytes.
func bigSegment(t *testing.T, dir string) ([][]*query.Track, string, []byte) {
	ctx := testCtx()
	r := rand.New(rand.NewSource(11))
	perClip := [][]*query.Track{genTracks(r, 60, ctx.Frames, ctx), genTracks(r, 60, ctx.Frames, ctx), genTracks(r, 60, ctx.Frames, ctx)}
	paths, err := ExportSegments(dir, "cam0", ctx, perClip, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= 128<<10 {
		t.Fatalf("segment is %d bytes, want more than 128 KiB", len(data))
	}
	return perClip, paths[0], data
}

// TestOpenSegmentsDirRejectsDamageAtBufferBoundaries: a segment cut at any
// length within 16 bytes of a 64 KiB boundary or of its end, or with one
// bit flipped at every 997th byte, makes OpenSegmentsDir fail, never
// succeed or panic.
func TestOpenSegmentsDirRejectsDamageAtBufferBoundaries(t *testing.T) {
	dir := t.TempDir()
	_, path, data := bigSegment(t, dir)
	open := func(what string, b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSegmentsDir(dir, nil); err == nil {
			t.Errorf("segment %s opened without error", what)
		}
	}
	for b := 64 << 10; b < len(data)-16; b += 64 << 10 {
		for n := b - 16; n <= b+16; n++ {
			open(fmt.Sprintf("cut to %d bytes", n), data[:n])
		}
	}
	for n := len(data) - 16; n < len(data); n++ {
		open(fmt.Sprintf("cut to %d of %d bytes", n, len(data)), data[:n])
	}
	bad := make([]byte, len(data))
	for off := 0; off < len(data); off += 997 {
		copy(bad, data)
		bad[off] ^= 1 << (off % 8)
		open(fmt.Sprintf("with bit %d of byte %d flipped", off%8, off), bad)
	}
}

// TestExportFailureLeavesNoSegment: an export that fails after the first
// 64 KiB of a segment have reached the disk (here on a category longer than
// any reader accepts) leaves neither the segment nor its temporary file.
func TestExportFailureLeavesNoSegment(t *testing.T) {
	perClip, _, _ := bigSegment(t, t.TempDir())
	last := perClip[2][len(perClip[2])-1]
	last.Category = strings.Repeat("x", 1<<20+1)
	dir := t.TempDir()
	if _, err := ExportSegments(dir, "cam0", testCtx(), perClip, 0); err == nil {
		t.Fatal("export of an unreadable category succeeded")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("failed export left %v (%v), want an empty directory", entries, err)
	}
}

// TestExportReplacesStaleSegments: exporting 7 clips at 2 a segment and
// then 2 clips into the same directory leaves the second export alone.
// Before the export removed what it did not write, the first export's
// seg-00001..00003 stayed behind and the directory opened as 7 clips.
func TestExportReplacesStaleSegments(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(14)
	dir := t.TempDir()
	if paths, err := ExportSegments(dir, "cam0", ctx, perClip, 2); err != nil || len(paths) != 4 {
		t.Fatalf("first export = %v, %v; want 4 files", paths, err)
	}
	paths, err := ExportSegments(dir, "cam0", ctx, perClip[:2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if found, _ := filepath.Glob(filepath.Join(dir, "*"+SegmentExt)); !reflect.DeepEqual(found, paths) {
		t.Errorf("directory holds %v, want only %v", found, paths)
	}
	byDataset, err := OpenSegmentsDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := byDataset["cam0"]
	if sh.Clips() != 2 {
		t.Fatalf("directory opens as %d clips, want the 2 of the second export", sh.Clips())
	}
	if got, want := sh.CountTracks("car"), New(perClip[:2], ctx).CountTracks("car"); !reflect.DeepEqual(got, want) {
		t.Errorf("counts %v, want %v", got, want)
	}
}

// TestExportKeepsOtherSegmentFiles: re-exporting cam0, shorter, into the
// layout of TestOpenSegmentsDirMultiDataset removes cam0's stale files and
// keeps cam1's renamed ones, and exporting into a directory whose name is
// a glob pattern ("data[12]") leaves data1 and data2, which that pattern
// matches, untouched. Both directories then open as their own exports.
func TestExportKeepsOtherSegmentFiles(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(16)
	dir := t.TempDir()
	if _, err := ExportSegments(dir, "cam0", ctx, perClip, 2); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(t.TempDir(), "b")
	paths, err := ExportSegments(sub, "cam1", ctx, perClip[:4], 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		if err := os.Rename(p, filepath.Join(dir, "cam1-"+SegmentID(i)+SegmentExt)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ExportSegments(dir, "cam0", ctx, perClip[:3], 2); err != nil {
		t.Fatal(err)
	}
	byDataset, err := OpenSegmentsDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := byDataset["cam0"], byDataset["cam1"]; len(byDataset) != 2 || a.Clips() != 3 || b.Clips() != 4 {
		t.Fatalf("after re-exporting cam0 the directory opens as %v, want cam0 of 3 clips and cam1 of 4", byDataset)
	}

	root := t.TempDir()
	var kept []string
	for _, name := range []string{"data1", "data2"} {
		paths, err := ExportSegments(filepath.Join(root, name), name, ctx, perClip, 2)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, paths...)
	}
	meta := filepath.Join(root, "data[12]")
	if _, err := ExportSegments(meta, "meta", ctx, perClip[:1], 2); err != nil {
		t.Fatal(err)
	}
	for _, p := range kept {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("an export into %s removed %s", meta, p)
		}
	}
	if byDataset, err = OpenSegmentsDir(meta, nil); err != nil || len(byDataset) != 1 || byDataset["meta"].Clips() != 1 {
		t.Fatalf("%s opens as %v, %v; want dataset meta of 1 clip", meta, byDataset, err)
	}
}

// TestFailedExportKeepsTheOldSegments: an export that fails on its second
// segment leaves the directory's earlier export as it was, every file
// byte for byte, with no temporary file beside it. When each segment was
// renamed as soon as it was written, the new seg-00000 sat in front of the
// old seg-00001..00003 and the directory opened as 7 clips of two track
// sets.
func TestFailedExportKeepsTheOldSegments(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(15)
	dir := t.TempDir()
	paths, err := ExportSegments(dir, "cam0", ctx, perClip, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	for _, p := range paths {
		if before[p], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	next := [][]*query.Track{perClip[1], perClip[0], perClip[3], {{ID: 1, Category: strings.Repeat("x", 1<<20+1)}}}
	if _, err := ExportSegments(dir, "cam0", ctx, next, 2); err == nil {
		t.Fatal("export of an unreadable category succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(paths) {
		t.Errorf("directory holds %v after the failed export, want the %d files of the first", entries, len(paths))
	}
	for _, p := range paths {
		if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, before[p]) {
			t.Errorf("%s changed under a failed export (%v)", p, err)
		}
	}
}

// TestOpenSegmentsDirIgnoresLeftoverTemp: the temporary file an export
// stopped midway leaves is not read; the complete segments open.
func TestOpenSegmentsDirIgnoresLeftoverTemp(t *testing.T) {
	perClip, mono, ctx, _ := shardedFixture(12)
	dir := t.TempDir()
	paths, err := ExportSegments(dir, "cam0", ctx, perClip, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, SegmentID(1)+SegmentExt+".tmp"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	byDataset, err := OpenSegmentsDir(dir, nil)
	if err != nil {
		t.Fatalf("directory with a leftover temporary file: %v", err)
	}
	if got := byDataset["cam0"].CountTracks("car"); !reflect.DeepEqual(got, mono.CountTracks("car")) {
		t.Error("counts diverged")
	}
}

// TestOpenSegmentsDirReportsFirstErrorInPathOrder: with several broken
// files, the error names the first in sorted path order, at one worker and
// at four.
func TestOpenSegmentsDirReportsFirstErrorInPathOrder(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(13)
	dir := t.TempDir()
	paths, err := ExportSegments(dir, "cam0", ctx, perClip, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths[1:] {
		if err := os.WriteFile(p, []byte("OTIFSEG1"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	for _, workers := range []int{1, 4, 4, 4} {
		parallel.SetWorkers(workers)
		if _, err := OpenSegmentsDir(dir, nil); err == nil || !strings.Contains(err.Error(), paths[1]) {
			t.Errorf("%d workers: err = %v, want one naming %s", workers, err, paths[1])
		}
	}
}

// TestOpenSegmentsDirRejectsDuplicateIDs: two files of one dataset that
// tile its clips under the same segment id used to open, and then shared
// result-cache entries, so a cached answer of one segment was served for
// the other.
func TestOpenSegmentsDirRejectsDuplicateIDs(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(14)
	dir := t.TempDir()
	for i, clips := range [][][]*query.Track{perClip[:2], perClip[2:]} {
		meta := persist.SegmentMeta{Dataset: "cam0", ID: SegmentID(0), StartClip: 2 * i, FPS: ctx.FPS, NomW: ctx.NomW, NomH: ctx.NomH, Frames: ctx.Frames}
		var buf bytes.Buffer
		if err := persist.WriteSegment(&buf, meta, clips); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%c%s", 'a'+i, SegmentExt)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenSegmentsDir(dir, NewCache()); err == nil || !strings.Contains(err.Error(), SegmentID(0)) {
		t.Errorf("two segments with one id: err = %v, want one naming %s", err, SegmentID(0))
	}
}
