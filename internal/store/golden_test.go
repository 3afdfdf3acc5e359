package store

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"otif/internal/geom"
	"otif/internal/query"
)

// digest folds query answers into an FNV-64a: every int, every float's
// bits, and for slices their length and whether they are nil, so that an
// answer that changes a tie order or turns a nil into an empty slice
// changes the hash.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) int(v int) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(int64(v)))
	d.h.Write(d.buf[:])
}

func (d *digest) f64(v float64) { d.int(int(math.Float64bits(v))) }

func (d *digest) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d *digest) matches(perClip [][]query.FrameMatch) {
	d.int(len(perClip))
	for _, ms := range perClip {
		d.int(len(ms))
		for _, m := range ms {
			d.int(m.FrameIdx)
			d.int(m.MinDuration)
			if m.Boxes == nil {
				d.int(-1)
			} else {
				d.int(len(m.Boxes))
			}
			for _, b := range m.Boxes {
				d.f64(b.X)
				d.f64(b.Y)
				d.f64(b.W)
				d.f64(b.H)
			}
		}
	}
}

func (d *digest) tracks(perClip [][]*query.Track) {
	d.int(len(perClip))
	for _, ts := range perClip {
		d.int(len(ts))
		for _, t := range ts {
			d.int(t.ID)
		}
	}
}

// goldenWorld is the fixed track set the golden hashes were recorded on:
// genTracks' mix (empty, single-detection and duplicate-frame tracks
// included) with two clips generated for a longer clip than ctx.Frames, so
// that some tracks run past the end of the clip and some start after it.
func goldenWorld() ([][]*query.Track, query.Context) {
	ctx := testCtx()
	r := rand.New(rand.NewSource(20221))
	return [][]*query.Track{
		genTracks(r, 40, ctx.Frames+40, ctx),
		genTracks(r, 25, ctx.Frames, ctx),
		nil,
		genTracks(r, 3, ctx.Frames, ctx),
		genTracks(r, 60, ctx.Frames+10, ctx),
	}, ctx
}

// TestGoldenQueries pins the answers of all nine query kinds across
// commits: the differential tests compare index and scan within one tree,
// this one compares the tree with constants recorded on commit 50f3a92
// (every answer comes through queryKinds' both, so index and scan both
// stand behind each hash). A
// change to the query cores that claims to leave answers alone, tie order
// included, must leave these alone. amd64 only, like the extraction
// golden: targets that fuse multiply-adds round differently.
func TestGoldenQueries(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden constants were recorded on amd64")
	}
	perClip, ctx := goldenWorld()
	s := New(perClip, ctx)

	// The limit hashes only pin tie order if ranking has ties to break.
	seen, ties := map[int]bool{}, 0
	for f := 0; f < ctx.Frames; f++ {
		_, owners := query.VisibleBoxes(perClip[0], "", f)
		if len(owners) == 0 {
			continue
		}
		minDur := math.MaxInt32
		for _, o := range owners {
			minDur = min(minDur, o.LastFrame()-f)
		}
		if seen[minDur] {
			ties++
		}
		seen[minDur] = true
	}
	if ties == 0 {
		t.Fatal("golden world has no two frames with equal MinDuration; the tie order is not exercised")
	}

	cats := []string{"", "car", "bus", "nosuch"}
	region := geom.Polygon{{X: 120, Y: 60}, {X: 420, Y: 60}, {X: 420, Y: 300}, {X: 120, Y: 300}}
	movements := []query.Movement{
		{Name: "a", Path: geom.Path{{X: 0, Y: 0}, {X: 640, Y: 360}}},
		{Name: "b", Path: geom.Path{{X: 640, Y: 0}, {X: 0, Y: 360}}},
	}

	// Each run hashes the answers ask returns; the loop below points ask at
	// the run's own row of queryKinds, index checked against scan.
	var ask func(p queryParams) any
	kinds := []struct {
		name string
		want uint64
		run  func(d *digest)
	}{
		{"count", 0x613265c11d66a56f, func(d *digest) {
			for _, cat := range cats {
				for _, n := range ask(queryParams{cat: cat}).([]int) {
					d.int(n)
				}
			}
		}},
		{"breakdown", 0x55c13a72b63567df, func(d *digest) {
			for _, m := range ask(queryParams{cat: "car", movements: movements, dist: 200}).([]map[string]int) {
				for _, mv := range movements {
					d.str(mv.Name)
					d.int(m[mv.Name])
				}
			}
		}},
		{"limit", 0xf54e637f2b11766e, func(d *digest) {
			preds := []query.FramePredicate{
				query.CountPredicate{N: 0},
				query.CountPredicate{N: 1},
				query.CountPredicate{N: 3},
				query.RegionPredicate{Region: region, N: 0},
				query.RegionPredicate{Region: region, N: 2},
				query.HotSpotPredicate{Radius: 90, N: 2},
			}
			for _, cat := range cats {
				for _, pred := range preds {
					for _, lm := range [][2]int{{0, 0}, {1, 0}, {3, 5}, {5, 0}, {10, 25}, {ctx.Frames, 0}} {
						d.matches(ask(queryParams{cat: cat, pred: pred, limit: lm[0], minSep: lm[1]}).([][]query.FrameMatch))
					}
				}
			}
		}},
		{"avgvisible", 0x55ff1cae97f25391, func(d *digest) {
			for _, cat := range cats {
				for _, v := range ask(queryParams{cat: cat}).([]float64) {
					d.f64(v)
				}
			}
		}},
		{"busy", 0x3930991f545e6047, func(d *digest) {
			for _, q := range []struct {
				a  string
				nA int
				b  string
				nB int
			}{{"car", 2, "bus", 1}, {"car", 1, "", 3}, {"", 0, "nosuch", 0}, {"bus", 1, "nosuch", 1}} {
				for _, frames := range ask(queryParams{cat: q.a, nA: q.nA, catB: q.b, nB: q.nB}).([][]int) {
					if frames == nil {
						d.int(-1)
					}
					d.int(len(frames))
					for _, f := range frames {
						d.int(f)
					}
				}
			}
		}},
		{"cooc", 0xf4927eb46636b394, func(d *digest) {
			for _, cat := range cats {
				for _, dist := range []float64{0, 80, 250} {
					for _, n := range ask(queryParams{cat: cat, dist: dist}).([]int) {
						d.int(n)
					}
				}
			}
		}},
		{"dwell", 0xba15853a0a119ae6, func(d *digest) {
			for _, cat := range cats {
				for _, m := range ask(queryParams{cat: cat, region: region}).([]map[int]float64) {
					ids := make([]int, 0, len(m))
					for id := range m {
						ids = append(ids, id)
					}
					sort.Ints(ids)
					d.int(len(ids))
					for _, id := range ids {
						d.int(id)
						d.f64(m[id])
					}
				}
			}
		}},
		{"braking", 0x30d0de01555c0803, func(d *digest) {
			for _, thr := range []float64{0, 250, 4000} {
				d.tracks(ask(queryParams{threshold: thr}).([][]*query.Track))
			}
		}},
		{"speeding", 0xd3389131202df30c, func(d *digest) {
			for _, thr := range []float64{0, 800, 3000} {
				d.tracks(ask(queryParams{threshold: thr}).([][]*query.Track))
			}
		}},
	}
	for i, k := range kinds {
		row := queryKinds[i]
		if row.name != k.name {
			t.Fatalf("golden kind %d is %q, queryKinds has %q there", i, k.name, row.name)
		}
		ask = func(p queryParams) any { return row.both(t, s, perClip, p) }
		d := newDigest()
		k.run(d)
		if got := d.h.Sum64(); got != k.want {
			t.Errorf("%s: hash %#x, want %#x", k.name, got, k.want)
		}
	}
}
