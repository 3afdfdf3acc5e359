package persist

import (
	"fmt"
	"io"
	"math"

	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/query"
)

// The track-set file format (OTIFTRK2): self-describing, so a file loads
// with zero positional arguments. The header records the frame rate,
// nominal geometry, frames per clip and dataset name.
//
// WriteTracksV2, ReadTracksAuto and TrackMeta are named by
// benchmark/querymix.go; delete with the next benchmark PR. A track set
// is saved and loaded as segment files (segment.go), and no product code
// reads or writes this format. The track body encoding below is shared
// with segments.
const (
	trackMagic   = "OTIFTRK2"
	trackVersion = 2
)

// TrackMeta is the header of a track file: everything a loader needs to
// answer queries over the tracks without out-of-band context.
type TrackMeta struct {
	FPS        int
	NomW, NomH int
	Frames     int // clip length in frames
	Dataset    string
}

// WriteTracksV2 serializes per-clip track sets: magic, format version, clip
// geometry and dataset name, then the track body, all covered by the
// trailing checksum.
func WriteTracksV2(dst io.Writer, perClip [][]*query.Track, meta TrackMeta) error {
	w := newWriter(dst)
	w.bytes([]byte(trackMagic))
	w.u32(trackVersion)
	w.int(meta.FPS)
	w.int(meta.NomW)
	w.int(meta.NomH)
	w.int(meta.Frames)
	w.str(meta.Dataset)
	writeTrackBody(w, perClip)
	return w.finish()
}

func writeTrackBody(w *writer, perClip [][]*query.Track) {
	w.count("clips", len(perClip), maxClips)
	for _, tracks := range perClip {
		w.count("tracks in a clip", len(tracks), maxRecords)
		for _, t := range tracks {
			writeTrack(w, t)
		}
	}
}

func writeTrack(w *writer, t *query.Track) {
	w.int(t.ID)
	w.str(t.Category)
	w.count("detections in a track", len(t.Dets), maxRecords)
	for _, d := range t.Dets {
		w.int(d.FrameIdx)
		w.f64(d.Box.X)
		w.f64(d.Box.Y)
		w.f64(d.Box.W)
		w.f64(d.Box.H)
		w.f64(d.Score)
		w.str(d.Category)
		w.f64(d.AppMean)
		w.f64(d.AppStd)
	}
	w.count("path points", len(t.Path), maxRecords)
	for _, p := range t.Path {
		w.f64(p.X)
		w.f64(p.Y)
	}
}

// ReadTracksAuto loads a track-set file written by WriteTracksV2, verifying
// the checksum. Any other magic, the retired headerless format's included,
// is ErrBadMagic.
func ReadTracksAuto(src io.Reader) ([][]*query.Track, *TrackMeta, error) {
	r := newReader(src)
	magic := string(r.bytes(len(trackMagic)))
	if r.err != nil {
		return nil, nil, r.err
	}
	if magic != trackMagic {
		return nil, nil, ErrBadMagic
	}
	if v := r.u32(); r.err == nil && v != trackVersion {
		return nil, nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	meta := &TrackMeta{
		FPS:  r.int(),
		NomW: r.int(),
		NomH: r.int(),
	}
	meta.Frames = r.int()
	meta.Dataset = r.str()
	if r.err != nil {
		return nil, nil, r.err
	}
	if err := checkFrames(meta.Frames); err != nil {
		return nil, nil, err
	}
	perClip, err := readTrackBody(r, meta.Frames)
	if err != nil {
		return nil, nil, err
	}
	return perClip, meta, nil
}

// maxFrames bounds a header's clip length: 9.7 hours at 30 fps. Every
// frame-level query loops up to it, so a few bytes claiming 1<<40 frames
// would otherwise hold a query for hours.
const maxFrames = 1 << 20

// checkFrames refuses a header clip length below 0 (0 gives none) or above
// maxFrames.
func checkFrames(frames int) error {
	if frames < 0 || frames > maxFrames {
		return fmt.Errorf("%w (clip length %d frames, outside [0, %d])", ErrBadChecksum, frames, maxFrames)
	}
	return nil
}

// maxPrealloc bounds the capacity a reader reserves on the strength of a
// count it has only read, not yet verified: the counts sit before the
// checksum, so a file of a few dozen bytes can claim 1<<24 records. Slices
// start at most this long and grow as records actually arrive.
const maxPrealloc = 1 << 10

// Limits on a track body's counts: clips in a file, and tracks in a clip,
// detections in a track and points in a path.
const (
	maxClips   = 1 << 20
	maxRecords = 1 << 24
)

// readTrackBody reads the clips of a file whose header gave frames as the
// clip length.
func readTrackBody(r *reader, frames int) ([][]*query.Track, error) {
	nClips := r.int()
	if r.err != nil || nClips < 0 || nClips > maxClips {
		return nil, badLen(r, nClips)
	}
	out := make([][]*query.Track, 0, min(nClips, maxPrealloc))
	for c := 0; c < nClips; c++ {
		nTracks := r.int()
		if r.err != nil || nTracks < 0 || nTracks > maxRecords {
			return nil, badLen(r, nTracks)
		}
		tracks := make([]*query.Track, 0, min(nTracks, maxPrealloc))
		for i := 0; i < nTracks; i++ {
			t, err := readTrack(r, frames)
			if err != nil {
				return nil, err
			}
			tracks = append(tracks, t)
		}
		out = append(out, tracks)
	}
	if err := r.verifyChecksum(); err != nil {
		return nil, err
	}
	return out, nil
}

// readTrack reads one track. Frame indices are held to what every reader of
// a track assumes: they start at 0 or later, never decrease along the
// track, stay inside the clip when the header gives its length, and fit the
// store's 32-bit interval index either way. A per-frame loop over a track
// is thereby bounded by the file's own header, not by one hostile number.
func readTrack(r *reader, frames int) (*query.Track, error) {
	t := &query.Track{
		ID:       r.int(),
		Category: r.str(),
	}
	nDets := r.int()
	if r.err != nil || nDets < 0 || nDets > maxRecords {
		return nil, badLen(r, nDets)
	}
	t.Dets = make([]detect.Detection, 0, min(nDets, maxPrealloc))
	lowest, highest := 0, math.MaxInt32
	if frames > 0 {
		highest = min(frames-1, highest)
	}
	for i := 0; i < nDets; i++ {
		d := detect.Detection{
			FrameIdx: r.int(),
			Box:      geom.Rect{X: r.f64(), Y: r.f64(), W: r.f64(), H: r.f64()},
			Score:    r.f64(),
			Category: r.strLike(t.Category),
			AppMean:  r.f64(),
			AppStd:   r.f64(),
		}
		if r.err != nil {
			return nil, r.err
		}
		if d.FrameIdx < lowest || d.FrameIdx > highest {
			return nil, fmt.Errorf("%w (track %d: detection %d is at frame %d, outside [%d, %d])",
				ErrBadChecksum, t.ID, i, d.FrameIdx, lowest, highest)
		}
		lowest = d.FrameIdx
		t.Dets = append(t.Dets, d)
	}
	nPath := r.int()
	if r.err != nil || nPath < 0 || nPath > maxRecords {
		return nil, badLen(r, nPath)
	}
	t.Path = make(geom.Path, 0, min(nPath, maxPrealloc))
	for i := 0; i < nPath; i++ {
		p := geom.Point{X: r.f64(), Y: r.f64()}
		if r.err != nil {
			return nil, r.err
		}
		t.Path = append(t.Path, p)
	}
	return t, nil
}

func badLen(r *reader, n int) error {
	if r.err != nil {
		return r.err
	}
	return fmt.Errorf("%w (implausible count %d)", ErrBadChecksum, n)
}
