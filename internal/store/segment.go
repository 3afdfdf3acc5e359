package store

import (
	"fmt"

	"otif/internal/query"
)

// Segment indexes a contiguous clip range of a dataset. Segments are the
// unit of scatter-gather (each query fans out across them), of result
// caching (a sealed segment's answers never change), and of shipping (the
// OTIFSEG1 wire format moves one segment between replicas). A Live store's
// open tail segment is not sealed: it is re-built on every append and
// answers queries directly. The manifest reports each segment's id, first
// clip and seal.
type Segment struct {
	id     string
	start  int // dataset clip index of the segment's first clip
	sealed bool
	clips  []clipIndex
	ctx    query.Context
}

// NewSegment indexes one clip range as a sealed segment. id must be stable
// across processes for the same content — it keys the result cache and
// names the exported file.
func NewSegment(id string, startClip int, perClip [][]*query.Track, ctx query.Context) *Segment {
	sg := New(perClip, ctx)
	sg.id, sg.start, sg.sealed = id, startClip, true
	return sg
}

// Context returns the clip geometry the segment was built with.
func (sg *Segment) Context() query.Context { return sg.ctx }

// Clips returns the number of clips in the segment.
func (sg *Segment) Clips() int { return len(sg.clips) }

// Tracks returns one clip's track slice (shared, read-only).
func (sg *Segment) Tracks(clip int) []*query.Track { return sg.clips[clip].tracks }

// SegmentID formats the conventional stable segment identifier for the
// n-th sealed segment of a dataset.
func SegmentID(n int) string { return fmt.Sprintf("seg-%05d", n) }

// SegmentInfo is one manifest row: the identity and extent of a segment.
type SegmentInfo struct {
	ID        string `json:"id"`
	StartClip int    `json:"start_clip"`
	Clips     int    `json:"clips"`
	Tracks    int    `json:"tracks"`
	Sealed    bool   `json:"sealed"`
}

// Manifest describes a sharded dataset: its name, clip geometry, and the
// ordered segment list that tiles [0, Clips). It is the registry's unit of
// dataset metadata and what a replica serves from a directory of shipped
// segments.
type Manifest struct {
	Dataset  string        `json:"dataset"`
	Context  query.Context `json:"context"`
	Clips    int           `json:"clips"`
	Segments []SegmentInfo `json:"segments"`
}

// SplitSegments cuts a dataset's clips into sealed segments of at most
// clipsPerSeg clips each (the last may be shorter), with conventional ids.
// clipsPerSeg <= 0 yields a single segment. An empty dataset yields no
// segments.
func SplitSegments(perClip [][]*query.Track, ctx query.Context, clipsPerSeg int) []*Segment {
	if len(perClip) == 0 {
		return nil
	}
	if clipsPerSeg <= 0 {
		clipsPerSeg = len(perClip)
	}
	var segs []*Segment
	for start := 0; start < len(perClip); start += clipsPerSeg {
		end := start + clipsPerSeg
		if end > len(perClip) {
			end = len(perClip)
		}
		segs = append(segs, NewSegment(SegmentID(len(segs)), start, perClip[start:end], ctx))
	}
	return segs
}
