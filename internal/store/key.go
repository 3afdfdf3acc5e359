package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"otif/internal/geom"
	"otif/internal/query"
)

// A result-cache key's query part is one binary encoding of the query: a
// kind tag, then every parameter in a fixed order, each in a form that
// says where it ends — a string as its length then its bytes, a float as
// the eight bytes of math.Float64bits, an int as eight bytes, a polygon
// or a movement list as its length then its elements, a frame predicate
// as a type tag then its fields. So reading a key back from its first
// byte recovers the kind and every parameter bit for bit, and two calls
// share a key exactly when they are one kind with identical parameters
// (FuzzCacheKey): no parameter can spell a separator, and two floats that
// print alike but differ in their bits (-0 and 0, two NaN payloads) key
// apart. Each key is made once a call and shared by every segment's
// entry.
type key []byte

// The kinds a key can name: the cached query kinds and the derived
// columns (pairs.go, ranks.go, runs.go).
const (
	kindBreakdown byte = iota + 1
	kindLimit
	kindAvgVisible
	kindBusy
	kindCoOccur
	kindDwell
	kindBraking
	kindSpeeding
	kindPairs
	kindRanks
	kindRuns
)

// The frame predicate type tags. A predicate of a type not listed here is
// keyed by its %T and %#v, after a tag of its own.
const (
	predOther byte = iota
	predCount
	predRegion
	predHotSpot
)

// newKey starts a key of one kind in buf's storage, which a caller keeps
// on its stack.
func newKey(buf []byte, kind byte) key { return append(key(buf[:0]), kind) }

func (k key) str(s string) key {
	return append(binary.AppendUvarint(k, uint64(len(s))), s...)
}

func (k key) int(v int) key { return binary.LittleEndian.AppendUint64(k, uint64(v)) }

func (k key) float(v float64) key {
	return binary.LittleEndian.AppendUint64(k, math.Float64bits(v))
}

func (k key) points(ps []geom.Point) key {
	k = binary.AppendUvarint(k, uint64(len(ps)))
	for _, p := range ps {
		k = k.float(p.X).float(p.Y)
	}
	return k
}

func (k key) movements(ms []query.Movement) key {
	k = binary.AppendUvarint(k, uint64(len(ms)))
	for _, m := range ms {
		k = k.str(m.Name).points(m.Path)
	}
	return k
}

func (k key) pred(p query.FramePredicate) key {
	switch p := p.(type) {
	case query.CountPredicate:
		return append(k, predCount).int(p.N)
	case query.RegionPredicate:
		return append(k, predRegion).points(p.Region).int(p.N)
	case query.HotSpotPredicate:
		return append(k, predHotSpot).float(p.Radius).int(p.N)
	}
	return append(k, predOther).str(fmt.Sprintf("%T|%#v", p, p))
}

// keyBuf is room on a caller's stack for a key without a long string or
// list in it: a breakdown key of six two-point movements, a dwell key of a
// fifteen-sided region.
const keyBuf = 256

// The keys of the cached kinds, one function each.

func breakdownKey(cat string, movements []query.Movement, maxEndpointDist float64) string {
	var buf [keyBuf]byte
	return string(newKey(buf[:], kindBreakdown).str(cat).float(maxEndpointDist).movements(movements))
}

func limitKey(cat string, pred query.FramePredicate, limit, minSepFrames int) string {
	var buf [keyBuf]byte
	return string(newKey(buf[:], kindLimit).str(cat).pred(pred).int(limit).int(minSepFrames))
}

func avgVisibleKey(cat string) string {
	var buf [keyBuf]byte
	return string(newKey(buf[:], kindAvgVisible).str(cat))
}

func busyKey(catA string, nA int, catB string, nB int) string {
	var buf [keyBuf]byte
	return string(newKey(buf[:], kindBusy).str(catA).int(nA).str(catB).int(nB))
}

func coOccurKey(cat string, dist float64) string {
	var buf [keyBuf]byte
	return string(newKey(buf[:], kindCoOccur).str(cat).float(dist))
}

func dwellKey(cat string, region geom.Polygon) string {
	var buf [keyBuf]byte
	return string(newKey(buf[:], kindDwell).str(cat).points(region))
}

func brakingKey(decelThreshold float64) string {
	var buf [keyBuf]byte
	return string(newKey(buf[:], kindBraking).float(decelThreshold))
}

func speedingKey(threshold float64) string {
	var buf [keyBuf]byte
	return string(newKey(buf[:], kindSpeeding).float(threshold))
}

func pairsKey(cat string) string {
	var buf [keyBuf]byte
	return string(newKey(buf[:], kindPairs).str(cat))
}

func ranksKey(cat string, pred query.FramePredicate) string {
	var buf [keyBuf]byte
	return string(newKey(buf[:], kindRanks).str(cat).pred(pred))
}

func runsKey(cat string) string {
	var buf [keyBuf]byte
	return string(newKey(buf[:], kindRuns).str(cat))
}
