package store

import (
	"otif/internal/geom"
	"otif/internal/query"
)

// dwellBlock is how many consecutive detection pairs one dwell block
// summarises. BenchmarkDwellIndexed/querymix chose it from 4, 8 and 16:
// blocks of 4 decide most of a query-mix track whole and still fall back
// to the pair walk over few pairs.
const dwellBlock = 4

// blocksOf is the number of dwell blocks of a track with n detections.
func blocksOf(n int) int {
	if n < 2 {
		return 0
	}
	return (n - 2 + dwellBlock) / dwellBlock
}

// addGeometry appends track ti's detections to the clip's geometry column
// (tracks are added in order) and fills its centre extent and dwell blocks.
// Block k covers pairs 1+k·dwellBlock up to the next block's first, pair i
// being detections i-1 and i.
func (ci *clipIndex) addGeometry(ti int, t *query.Track) {
	o := ci.off[ti]
	for k := range t.Dets {
		ci.boxes[int(o)+k] = t.Dets[k].Box
		ci.frames[int(o)+k] = int32(t.Dets[k].FrameIdx)
	}
	ci.off[ti+1] = o + int32(len(t.Dets))
	b := ci.blockOff[ti]
	ci.blockOff[ti+1] = b + int32(blocksOf(len(t.Dets)))
	boxes, frames := ci.geometry(int32(ti))
	if len(boxes) == 0 {
		return // no extent: regionCandidates reads the inverted interval
	}
	from := pairEndOf(boxes[0])
	ci.centres[ti] = from.span(from)
	for i := 1; i < len(boxes); i++ {
		to := pairEndOf(boxes[i])
		span := from.span(to)
		if (i-1)%dwellBlock == 0 {
			ci.blockSpan[b], ci.blockLast[b] = span, frames[i]
			b++
		} else {
			ci.blockSpan[b-1] = ci.blockSpan[b-1].union(span)
			ci.blockLast[b-1] = max(ci.blockLast[b-1], frames[i])
		}
		ci.centres[ti] = ci.centres[ti].union(span)
		from = to
	}
}

// geometry returns track ti's stretch of the geometry column.
func (ci *clipIndex) geometry(ti int32) ([]geom.Rect, []int32) {
	o, e := ci.off[ti], ci.off[ti+1]
	return ci.boxes[o:e], ci.frames[o:e]
}

// boxAt is Track.BoxAt over the column for a frame f within track ti's
// first and last frames: query.InterpBox over the first detection pair
// whose second detection is at or past f (a single detection's own box).
// *pos is the column position of that second detection, -1 before the
// first call; it only moves forward, so calls at non-decreasing frames
// walk the track's detections once in all.
func (ci *clipIndex) boxAt(ti int32, pos *int32, f int) geom.Rect {
	o := ci.off[ti]
	j := *pos
	if j < 0 {
		j = min(o+1, ci.off[ti+1]-1)
	}
	for f > int(ci.frames[j]) {
		j++
	}
	*pos = j
	i := max(j-1, o)
	return query.InterpBox(ci.boxes[i], ci.boxes[j], int(ci.frames[i]), int(ci.frames[j]), f)
}

// loaded counts the detections of track ti a boxAt walk standing at pos
// has read, in the unit of store.index_boxes.
func (ci *clipIndex) loaded(ti, pos int32) int64 {
	if pos < 0 {
		return 0
	}
	return int64(pos-ci.off[ti]) + 1
}
