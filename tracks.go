package otif

import (
	"sync"

	"otif/internal/geom"
	"otif/internal/query"
	"otif/internal/store"
)

// TrackSet is the output of one extraction pass: per-clip object tracks
// plus the simulated execution cost. All subsequent queries are answered
// from the stored tracks — no video decoding or model inference. Query
// methods execute through a lazily built indexed store (see Index), which
// prunes candidate tracks through temporal, spatial and category indexes
// while returning results bit-identical to a linear scan.
type TrackSet struct {
	// PerClip holds the extracted tracks of each clip in set order.
	PerClip [][]*query.Track
	// Runtime is the simulated extraction cost in seconds.
	Runtime float64
	// Dataset is the name of the dataset the tracks were extracted from
	// (stored in the file header).
	Dataset string

	ctx query.Context

	idxOnce sync.Once
	idx     store.Querier
}

// Track is one stored object track.
type Track = query.Track

// Movement is a labeled spatial pattern for path breakdown queries.
type Movement = query.Movement

// FrameMatch is one frame returned by a limit query.
type FrameMatch = query.FrameMatch

// Index returns the set's indexed track store, building it on first use.
// The store holds a per-clip temporal interval index, a coarse spatial
// grid over track extents and per-category postings lists; every TrackSet
// query method and the otifd /v1/query/* endpoints execute through it. The
// returned Querier is safe for concurrent queries; for sets adopted from a
// streaming ingest session it is the session's segmented store, otherwise
// a monolithic index — both answer bit-identically.
func (ts *TrackSet) Index() store.Querier {
	ts.idxOnce.Do(func() {
		ts.idx = store.New(ts.PerClip, ts.ctx)
	})
	return ts.idx
}

// CountTracks returns, per clip, the number of tracks of the category
// (empty for all categories). This answers the paper's track count query.
func (ts *TrackSet) CountTracks(category string) []int {
	return ts.Index().CountTracks(category)
}

// PathBreakdown counts, per clip, the category tracks following each
// movement (the turning-movement count query).
func (ts *TrackSet) PathBreakdown(category string, movements []Movement, maxEndpointDist float64) []map[string]int {
	return ts.Index().PathBreakdown(category, movements, maxEndpointDist)
}

// HardBraking returns, per clip, the tracks whose maximum deceleration
// exceeds the threshold in nominal pixels per second squared (example
// exploratory query (1) of §3).
func (ts *TrackSet) HardBraking(decelThreshold float64) [][]*Track {
	return ts.Index().HardBraking(decelThreshold)
}

// AvgVisible returns, per clip, the average number of category objects
// visible per frame (example exploratory query (3)).
func (ts *TrackSet) AvgVisible(category string) []float64 {
	return ts.Index().AvgVisible(category)
}

// BusyFrames returns, per clip, the frames with at least nA objects of
// catA and nB objects of catB visible (example exploratory query (2)).
func (ts *TrackSet) BusyFrames(catA string, nA int, catB string, nB int) [][]int {
	return ts.Index().BusyFrames(catA, nA, catB, nB)
}

// LimitQuery runs a frame-level limit query per clip: up to limit frames
// satisfying pred, at least minSepSec apart.
func (ts *TrackSet) LimitQuery(category string, pred query.FramePredicate, limit int, minSepSec float64) [][]FrameMatch {
	minSep := int(minSepSec * float64(ts.ctx.FPS))
	return ts.Index().LimitQuery(category, pred, limit, minSep)
}

// Speeding returns, per clip, the tracks whose median speed exceeds the
// threshold in nominal pixels per second.
func (ts *TrackSet) Speeding(threshold float64) [][]*Track {
	return ts.Index().Speeding(threshold)
}

// DwellTime returns, per clip, seconds each category track spends inside
// the region (keyed by track ID).
func (ts *TrackSet) DwellTime(category string, region geom.Polygon) []map[int]float64 {
	return ts.Index().DwellTime(category, region)
}

// CoOccurrences returns, per clip, the total count of frame-wise pairs of
// category objects within dist of each other.
func (ts *TrackSet) CoOccurrences(category string, dist float64) []int {
	return ts.Index().CoOccurrences(category, dist)
}

// SpeedStats summarizes one track's motion.
type SpeedStats = query.SpeedStats

// TrackSpeed computes the speed statistics of one stored track.
func (ts *TrackSet) TrackSpeed(t *Track) SpeedStats {
	return query.TrackSpeed(t, ts.ctx.FPS)
}

// Polygon re-exports the region type used by spatial queries.
type Polygon = geom.Polygon

// Predicates re-exported for limit queries.
type (
	// CountPredicate matches frames with at least N objects.
	CountPredicate = query.CountPredicate
	// RegionPredicate matches frames with at least N objects in a polygon.
	RegionPredicate = query.RegionPredicate
	// HotSpotPredicate matches frames with a dense circular cluster.
	HotSpotPredicate = query.HotSpotPredicate
)
