package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"otif/internal/geom"
	"otif/internal/query"
)

// Querier is the read-side query surface of a track set: one result element
// per clip for every dataset-wide query, exactly the shape the scan queries
// produce. *Sharded is its one implementation; everything above the store
// (the public TrackSet, which embeds one, serve.QueryAPI, the otifd daemon)
// speaks Querier.
type Querier interface {
	// Context is the clip geometry: frame rate, nominal size, frames per clip.
	Context() query.Context
	// Manifest describes the set's segments: id, first clip, clips, tracks
	// and seal of each.
	Manifest() Manifest
	// Clips is the number of clips; Tracks is one clip's tracks (shared,
	// read-only).
	Clips() int
	Tracks(clip int) []*query.Track

	// CountTracks returns, per clip, the number of tracks of the category
	// (empty for all categories): the paper's track count query.
	CountTracks(cat string) []int
	// PathBreakdown counts, per clip, the category tracks following each
	// movement (the turning-movement count query).
	PathBreakdown(cat string, movements []query.Movement, maxEndpointDist float64) []map[string]int
	// VisibleBoxes returns the category boxes visible at one frame of one
	// clip, with the tracks that own them.
	VisibleBoxes(clip int, cat string, frameIdx int) ([]geom.Rect, []*query.Track)
	// LimitQuery returns, per clip, up to limit frames satisfying pred, at
	// least minSepFrames apart.
	LimitQuery(cat string, pred query.FramePredicate, limit, minSepFrames int) [][]query.FrameMatch
	// AvgVisible returns, per clip, the average number of category objects
	// visible per frame (example exploratory query (3) of §3).
	AvgVisible(cat string) []float64
	// BusyFrames returns, per clip, the frames with at least nA objects of
	// catA and nB objects of catB visible (example exploratory query (2)).
	BusyFrames(catA string, nA int, catB string, nB int) [][]int
	// CoOccurrences returns, per clip, the total count of frame-wise pairs
	// of category objects within dist of each other.
	CoOccurrences(cat string, dist float64) []int
	// DwellTime returns, per clip, the seconds each category track spends
	// inside the region, keyed by track ID.
	DwellTime(cat string, region geom.Polygon) []map[int]float64
	// HardBraking returns, per clip, the tracks whose maximum deceleration
	// exceeds the threshold in nominal pixels per second squared (example
	// exploratory query (1)).
	HardBraking(decelThreshold float64) [][]*query.Track
	// Speeding returns, per clip, the tracks whose median speed exceeds the
	// threshold in nominal pixels per second.
	Speeding(threshold float64) [][]*query.Track
}

// Provider yields a consistent point-in-time Querier. A Sharded returns
// itself; Live returns its current published shard set; the Registry
// resolves named datasets to their providers. Snapshot must be cheap and
// safe for concurrent use — servers call it once per request.
type Provider interface {
	Snapshot() Querier
}

// ProviderFunc adapts a function to the Provider interface, for callers
// (like the daemon's hot-swap chain) whose current store is computed.
type ProviderFunc func() Querier

func (f ProviderFunc) Snapshot() Querier { return f() }

// ErrUnknownDataset is returned by Registry.Resolve for a name that has no
// registered provider.
var ErrUnknownDataset = errors.New("store: unknown dataset")

// Registry maps dataset names to Providers — the manifest registry a
// multi-dataset server resolves the ?dataset= selector against. The empty
// name resolves to the default dataset, so single-dataset deployments need
// no selector at all.
type Registry struct {
	mu  sync.RWMutex
	m   map[string]Provider
	def string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]Provider)} }

// Register adds or replaces the provider for a dataset name. The first
// registered dataset becomes the default.
func (r *Registry) Register(name string, p Provider) {
	if name == "" {
		panic("store: Register with empty dataset name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]Provider)
	}
	if len(r.m) == 0 {
		r.def = name
	}
	r.m[name] = p
}

// Resolve returns a point-in-time Querier for the named dataset ("" means
// the default). A registered dataset whose provider currently has no store
// (e.g. a daemon before its first load) resolves to a nil Querier with a
// nil error; callers treat that as "not ready".
func (r *Registry) Resolve(name string) (Querier, error) {
	r.mu.RLock()
	if name == "" {
		name = r.def
	}
	p := r.m[name]
	r.mu.RUnlock()
	if p == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	return p.Snapshot(), nil
}

// Names lists the registered dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Default returns the default dataset name ("" when nothing is registered).
func (r *Registry) Default() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.def
}

var _ Provider = ProviderFunc(nil)
