package persist

import (
	"fmt"
	"io"

	"otif/internal/query"
)

// Segment file format (OTIFSEG1): one immutable slice of a dataset's clip
// sequence, self-describing and shippable between replicas. The header
// records the segment's identity (dataset, segment id, first clip index)
// and the clip geometry every query needs; the body reuses the v2 track
// encoding byte for byte; a trailing CRC32 covers header and body. The
// encoding is fully deterministic: writing what ReadSegment returned
// reproduces the original file bit for bit, which the round-trip tests
// pin.
const (
	segmentMagic   = "OTIFSEG1"
	segmentVersion = 1
)

// SegmentMeta is the self-describing header of a segment file.
type SegmentMeta struct {
	// Dataset names the track set the segment belongs to; a replica serves
	// one manifest per dataset.
	Dataset string
	// ID is the segment's stable identifier within its dataset (also the
	// result-cache key prefix and the conventional file stem).
	ID string
	// StartClip is the index of the segment's first clip in dataset clip
	// order; a manifest's segments tile [0, totalClips) contiguously.
	StartClip int
	// Clip geometry, as in the v2 track header.
	FPS        int
	NomW, NomH int
	Frames     int
}

// WriteSegment serializes one segment: header, v2 track body, CRC32.
func WriteSegment(dst io.Writer, meta SegmentMeta, perClip [][]*query.Track) error {
	w := newWriter(dst)
	w.bytes([]byte(segmentMagic))
	w.u32(segmentVersion)
	w.str(meta.Dataset)
	w.str(meta.ID)
	w.int(meta.StartClip)
	w.int(meta.FPS)
	w.int(meta.NomW)
	w.int(meta.NomH)
	w.int(meta.Frames)
	writeTrackBody(w, perClip)
	return w.finish()
}

// ReadSegment loads a segment file written by WriteSegment, verifying the
// magic, version and checksum.
func ReadSegment(src io.Reader) (SegmentMeta, [][]*query.Track, error) {
	r := newReader(src)
	var meta SegmentMeta
	b := r.bytes(len(segmentMagic))
	if r.err != nil {
		return meta, nil, r.err
	}
	if string(b) != segmentMagic {
		return meta, nil, ErrBadMagic
	}
	if v := r.u32(); r.err == nil && v != segmentVersion {
		return meta, nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	meta.Dataset = r.str()
	meta.ID = r.str()
	meta.StartClip = r.int()
	meta.FPS = r.int()
	meta.NomW = r.int()
	meta.NomH = r.int()
	meta.Frames = r.int()
	if r.err != nil {
		return meta, nil, r.err
	}
	if meta.StartClip < 0 {
		return meta, nil, fmt.Errorf("%w (negative start clip %d)", ErrBadChecksum, meta.StartClip)
	}
	if err := checkFrames(meta.Frames); err != nil {
		return meta, nil, err
	}
	perClip, err := readTrackBody(r, meta.Frames)
	if err != nil {
		return meta, nil, err
	}
	return meta, perClip, nil
}
