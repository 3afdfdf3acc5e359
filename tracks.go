package otif

import (
	"otif/internal/geom"
	"otif/internal/query"
	"otif/internal/store"
)

// TrackSet is the output of one extraction pass: an indexed store of the
// per-clip object tracks plus its simulated cost. All
// subsequent queries are answered from the stored tracks — no video
// decoding or model inference. The nine query kinds, Clips, Tracks(clip),
// VisibleBoxes, Context and Manifest are the embedded store.Querier's own
// methods. It has one shape, a *store.Sharded of segments, whether the set
// was extracted, loaded by LoadTrackSets or is an ingest session's live
// snapshot; an extracted set and its reload have the same segments. The
// dataset the tracks were extracted from is Manifest().Dataset. Each
// query answers bit-identically to a linear scan and is safe for
// concurrent queries.
type TrackSet struct {
	store.Querier
	// Runtime is the simulated extraction cost in seconds.
	Runtime float64
}

// Track is one stored object track.
type Track = query.Track

// Movement is a labeled spatial pattern for path breakdown queries.
type Movement = query.Movement

// FrameMatch is one frame returned by a limit query.
type FrameMatch = query.FrameMatch

// Snapshot makes a TrackSet a store.Provider, so a dataset registry takes
// it as it is. A zero TrackSet resolves to "not loaded".
func (ts *TrackSet) Snapshot() store.Querier { return ts.Querier }

// LimitQuery runs a frame-level limit query per clip: up to limit frames
// satisfying pred, at least minSepSec apart (any separation longer than a
// clip asks for one frame per clip; a NaN or negative one for no
// separation). It shadows the store's method of the same name, which takes
// the separation in frames.
func (ts *TrackSet) LimitQuery(category string, pred query.FramePredicate, limit int, minSepSec float64) [][]FrameMatch {
	return ts.Querier.LimitQuery(category, pred, limit, ts.Context().SepFrames(minSepSec))
}

// perClip reads the clips' track slices back from the store (shared,
// read-only).
func (ts *TrackSet) perClip() [][]*query.Track {
	out := make([][]*query.Track, ts.Clips())
	for i := range out {
		out[i] = ts.Tracks(i)
	}
	return out
}

// SpeedStats summarizes one track's motion.
type SpeedStats = query.SpeedStats

// TrackSpeed computes the speed statistics of one stored track.
func (ts *TrackSet) TrackSpeed(t *Track) SpeedStats {
	return query.TrackSpeed(t, ts.Context().FPS)
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
