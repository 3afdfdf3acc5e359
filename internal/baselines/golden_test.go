package baselines

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"otif/internal/geom"
	"otif/internal/query"
)

// goldenCand is what one baseline candidate must reproduce, as
// Float64bits: its validation accuracy and runtime, its test-set accuracy
// and runtime, and an FNV-64a digest of its test-set tracks.
type goldenCand struct {
	valAcc, valRuntime, testAcc, testRuntime uint64
	tracks                                   uint64
}

func (g goldenCand) String() string {
	return fmt.Sprintf("{%#x, %#x, %#x, %#x, %#x}", g.valAcc, g.valRuntime, g.testAcc, g.testRuntime, g.tracks)
}

// tracksDigest hashes every clip's tracks in order: track IDs, categories,
// and the bits of every detection and path point.
func tracksDigest(perClip [][]*query.Track) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(v float64) { putU(math.Float64bits(v)) }
	putS := func(s string) {
		putU(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, tracks := range perClip {
		putU(uint64(len(tracks)))
		for _, tr := range tracks {
			putU(uint64(tr.ID))
			putS(tr.Category)
			putU(uint64(len(tr.Dets)))
			for _, d := range tr.Dets {
				putU(uint64(d.FrameIdx))
				putF(d.Box.X)
				putF(d.Box.Y)
				putF(d.Box.W)
				putF(d.Box.H)
				putF(d.Score)
				putS(d.Category)
				putF(d.AppMean)
				putF(d.AppStd)
			}
			putU(uint64(len(tr.Path)))
			for _, p := range tr.Path {
				putF(p.X)
				putF(p.Y)
			}
		}
	}
	return h.Sum64()
}

// sameRuntime compares two runtimes given as Float64bits. Miris, NoScope
// and CaTDet once charged one accountant across all clips of a set and
// now charge one per clip, merged in clip order like every other method;
// that reassociation moves their runtimes by at most 22 ulps here, so
// they are compared within a relative 1e-12. Every other runtime must
// match by bits.
func sameRuntime(method string, got, want uint64) bool {
	switch method {
	case "Miris", "NoScope", "CaTDet":
		g, w := math.Float64frombits(got), math.Float64frombits(want)
		return math.Abs(g-w) <= 1e-12*math.Abs(w)
	}
	return got == want
}

// goldenTrackMethods pins every candidate of every track-query baseline on
// the cached caldot1 system, in Tune order. Recorded on commit bd58dc3,
// before the baselines moved onto core's clip-set runner. The constants
// hold on amd64 only; targets that fuse multiply-adds round differently.
var goldenTrackMethods = map[string][]goldenCand{
	"Miris": {
		{0x3fef3cf3cf3cf3d0, 0x4010812562ef899a, 0x3ff0000000000000, 0x40105ebb8e1d2241, 0xb77facc3ea4e2e50},
		{0x3ff0000000000000, 0x400221c0e00514ba, 0x3ff0000000000000, 0x400126310437e75c, 0xc11805b5b30bbedf},
		{0x3fee79e79e79e79f, 0x3ff2de26dc9411f7, 0x3ff0000000000000, 0x3ff2ad3b788bfae8, 0xa32cccbb913bee50},
		{0x3fe8618618618618, 0x3fe60ce86b41e1b7, 0x3fe5555555555555, 0x3fe85387acd30532, 0xb08ab14f91fb0112},
		{0x3fe9249249249249, 0x3fdcddf8000a5b32, 0x3fd5555555555555, 0x3fd8938e23590796, 0xd8f675759aebbe55},
	},
	"Chameleon": {
		{0x3fecf3cf3cf3cf3d, 0x40202e147ae147ab, 0x3ff0000000000000, 0x40202e147ae147ab, 0xaddecfba66d8792b},
		{0x3fedb6db6db6db6d, 0x4016c48d159e26b7, 0x3ff0000000000000, 0x4016c48d159e26b7, 0x1c60b8e9b52d3fd},
		{0x3fedb6db6db6db6d, 0x40100a3d70a3d70b, 0x3ff0000000000000, 0x40100a3d70a3d70b, 0xf58d928cda0f4218},
		{0x3fedb6db6db6db6d, 0x4000661ebf4f7d5f, 0x3ff0000000000000, 0x4000661ebf4f7d5f, 0x2b869d2240aa71c5},
		{0x3fecf3cf3cf3cf3d, 0x3fe1edad5eba1152, 0x3ff0000000000000, 0x3fe1edad5eba1152, 0x9aac62fd2c4a66b},
		{0x3fecf3cf3cf3cf3d, 0x3fd9fbbb94611e60, 0x3ff0000000000000, 0x3fd9fbbb94611e60, 0x2317f55677973275},
		{0x3fecf3cf3cf3cf3d, 0x3fd30dbca22940dc, 0x3fed555555555555, 0x3fd30dbca22940dc, 0x20dec7f71b10d0ba},
		{0x3fec30c30c30c30c, 0x3fcc71ba87a21b04, 0x3fe8000000000000, 0x3fcc71ba87a21b04, 0x2817bed3b652ca20},
		{0x3feb6db6db6db6dc, 0x3fc5b0e5412fe491, 0x3fe0000000000000, 0x3fc5b0e5412fe491, 0x2fdd69cdd1f50ab8},
		{0x3fe0000000000000, 0x3fb6c3408cc7f209, 0x3fe0000000000000, 0x3fb6c3408cc7f209, 0x26f57fb05ae60bd7},
	},
	"NoScope": {
		{0x3fedb6db6db6db6d, 0x401019c28f5c28eb, 0x3ff0000000000000, 0x401019c28f5c28eb, 0xf58d928cda0f4218},
		{0x3fedb6db6db6db6d, 0x400cdac5f92c5f81, 0x3ff0000000000000, 0x400eba8d2ceb6217, 0xf58d928cda0f4218},
		{0x3fedb6db6db6db6d, 0x400cdac5f92c5f81, 0x3ff0000000000000, 0x400eba8d2ceb6217, 0xf58d928cda0f4218},
		{0x3fedb6db6db6db6d, 0x400cdac5f92c5f81, 0x3ff0000000000000, 0x400eba8d2ceb6217, 0xf58d928cda0f4218},
		{0x3fedb6db6db6db6d, 0x400cdac5f92c5f81, 0x3ff0000000000000, 0x400eba8d2ceb6217, 0xf58d928cda0f4218},
		{0x3fedb6db6db6db6d, 0x400cdac5f92c5f81, 0x3ff0000000000000, 0x400eba8d2ceb6217, 0xf58d928cda0f4218},
	},
	"CaTDet": {
		{0x3fedb6db6db6db6d, 0x3ff459a1abaede6c, 0x3ff0000000000000, 0x3ff40d194237fa88, 0x6a7c7c3ce2fd3083},
		{0x3fedb6db6db6db6d, 0x3ff26ba7bfb7d459, 0x3ff0000000000000, 0x3ff214f8c61ad4ce, 0x773d3bcba9e88dc9},
		{0x3fedb6db6db6db6d, 0x3ff112e734e0fc9c, 0x3fed555555555555, 0x3ff06bd53d626668, 0x886fef7ff4fd27a9},
	},
	"CenterTrack": {
		{0x3fecf3cf3cf3cf3d, 0x40202ef1fddebd8d, 0x3ff0000000000000, 0x40202e9ff0cbaf93, 0xaddecfba66d8792b},
		{0x3fec30c30c30c30c, 0x40108c33887bf34e, 0x3ff0000000000000, 0x40108bd203fc9d2d, 0xb8e651f80cd599b4},
		{0x3fe0000000000000, 0x4000d622daaec608, 0x3fe0000000000000, 0x4000d54381ee3a92, 0x3a86982d12a114a8},
		{0x3fecf3cf3cf3cf3d, 0x40100c154c985f08, 0x3ff0000000000000, 0x40100b545c78a6dc, 0xf58d928cda0f4218},
		{0x3fec30c30c30c30c, 0x400068592c32d589, 0x3ff0000000000000, 0x4000675e901fe4eb, 0x2b869d2240aa71c5},
		{0x3fe0000000000000, 0x3ff0b1d7c595e87b, 0x3fe0000000000000, 0x3ff0b0084d1d30d9, 0x9ca512b8f37e9530},
		{0x3fec30c30c30c30c, 0x400018da0a6b4445, 0x3ff0000000000000, 0x4000172e38c0c226, 0x90dbc2abdbc851a7},
		{0x3fec30c30c30c30c, 0x3ff0749f414edbb4, 0x3ff0000000000000, 0x3ff072c7655a53b8, 0x7f47852a1ad9eb98},
		{0x3fe0000000000000, 0x3fe0beb1f9d814b6, 0x3fe0000000000000, 0x3fe0bb498f8b6fc1, 0x1b40d79817aa4834},
	},
}

// TestGoldenBaselines: every baseline candidate reproduces its recorded
// validation and test accuracy, runtime and test-set tracks.
func TestGoldenBaselines(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden constants were recorded on amd64")
	}
	sys, metric := trainedSystem(t)
	var record strings.Builder
	for _, m := range All() {
		cands := m.Tune(sys, metric)
		want := goldenTrackMethods[m.Name()]
		fmt.Fprintf(&record, "\t%q: {\n", m.Name())
		if len(cands) != len(want) {
			t.Errorf("%s: %d candidates, want %d", m.Name(), len(cands), len(want))
		}
		for i, c := range cands {
			res := c.Run(sys.DS.Test)
			got := goldenCand{
				valAcc:      math.Float64bits(c.ValAccuracy),
				valRuntime:  math.Float64bits(c.ValRuntime),
				testAcc:     math.Float64bits(metric.Accuracy(res.PerClip, sys.DS.Test)),
				testRuntime: math.Float64bits(res.Runtime),
				tracks:      tracksDigest(res.PerClip),
			}
			fmt.Fprintf(&record, "\t\t%v,\n", got)
			if i >= len(want) {
				continue
			}
			w := want[i]
			if got.valAcc != w.valAcc || got.testAcc != w.testAcc || got.tracks != w.tracks ||
				!sameRuntime(m.Name(), got.valRuntime, w.valRuntime) ||
				!sameRuntime(m.Name(), got.testRuntime, w.testRuntime) {
				t.Errorf("%s candidate %d: got %v, want %v", m.Name(), i, got, w)
			}
		}
		fmt.Fprintf(&record, "\t},\n")
	}
	if t.Failed() {
		t.Logf("recorded:\n%s", record.String())
	}
}

// goldenFrame is a FrameLevelResult by bits.
type goldenFrame struct {
	pre, query, acc        uint64
	returned, detectorApps int
}

func frameGolden(r FrameLevelResult) goldenFrame {
	return goldenFrame{
		math.Float64bits(r.PreprocessTime), math.Float64bits(r.QueryTime),
		math.Float64bits(r.Accuracy), r.Returned, r.DetectorApps,
	}
}

// goldenFrameQueries pins each frame-level method's whole result on one
// count and one region query over the test set, keyed method/query.
// Recorded on commit bd58dc3.
var goldenFrameQueries = map[string]goldenFrame{
	"OTIF/count":     {0x4000661ebf4f7d5f, 0x3f32ad81adea8976, 0x3ff0000000000000, 3, 0},
	"OTIF/region":    {0x4000661ebf4f7d5f, 0x3f32ad81adea8976, 0x3ff0000000000000, 4, 0},
	"BlazeIt/count":  {0x3f949f49f49f49de, 0x3fa9b3d07c84b5dc, 0x3ff0000000000000, 3, 3},
	"BlazeIt/region": {0x3f949f49f49f49de, 0x3fb1228afdadce93, 0x3ff0000000000000, 4, 4},
	"TASTI/count":    {0x3fe796f1f7a80309, 0x3ff010624dd2f1af, 0x3ff0000000000000, 3, 60},
	"TASTI/region":   {0x3fe796f1f7a80309, 0x3ff054ec79c9a8e9, 0x3ff0000000000000, 4, 61},
}

// TestGoldenFrameLevel: OTIFFrames, BlazeIt and TASTI reproduce their
// recorded results on a count and a region query.
func TestGoldenFrameLevel(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden constants were recorded on amd64")
	}
	sys, _ := trainedSystem(t)
	nomW, nomH := float64(sys.DS.Cfg.NomW), float64(sys.DS.Cfg.NomH)
	queries := []FrameQuery{
		{Name: "count", Category: "car", Pred: query.CountPredicate{N: 2}, Limit: 3, MinSepSec: 2},
		{Name: "region", Category: "car", Pred: query.RegionPredicate{Region: geom.Polygon{
			{X: nomW * 0.25, Y: nomH * 0.25}, {X: nomW * 0.75, Y: nomH * 0.25},
			{X: nomW * 0.75, Y: nomH * 0.75}, {X: nomW * 0.25, Y: nomH * 0.75},
		}, N: 1}, Limit: 4, MinSepSec: 1},
	}
	cfg := sys.Best
	cfg.Gap = 2
	otif := NewOTIFFrames(sys.RunSet(cfg, sys.DS.Test))
	methods := []struct {
		name string
		run  func(q FrameQuery) FrameLevelResult
	}{
		{"OTIF", func(q FrameQuery) FrameLevelResult { return otif.RunFrameQuery(sys, q, sys.DS.Test) }},
		{"BlazeIt", func(q FrameQuery) FrameLevelResult { return NewBlazeIt().RunFrameQuery(sys, q, sys.DS.Test) }},
		{"TASTI", func(q FrameQuery) FrameLevelResult { return NewTASTI().RunFrameQuery(sys, q, sys.DS.Test, nil, 0) }},
	}
	var record strings.Builder
	for _, m := range methods {
		for _, q := range queries {
			key := m.name + "/" + q.Name
			got := frameGolden(m.run(q))
			fmt.Fprintf(&record, "\t%q: {%#x, %#x, %#x, %d, %d},\n", key, got.pre, got.query, got.acc, got.returned, got.detectorApps)
			if want, ok := goldenFrameQueries[key]; !ok || got != want {
				t.Errorf("%s: got %+v, want %+v", key, got, want)
			}
		}
	}
	if t.Failed() {
		t.Logf("recorded:\n%s", record.String())
	}
}
