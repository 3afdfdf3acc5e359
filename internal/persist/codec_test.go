package persist

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"otif/internal/core"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/nn"
	"otif/internal/proxy"
	"otif/internal/query"
	"otif/internal/refine"
	"otif/internal/video"
)

// goldenSegment is TestGoldenBytes's segment: about 300 KB, so four 64 KiB
// buffer boundaries fall inside it.
func goldenSegment(t testing.TB) []byte {
	var buf bytes.Buffer
	meta := SegmentMeta{Dataset: "caldot1", ID: "seg-00003", StartClip: 24, FPS: 10, NomW: 1280, NomH: 720, Frames: 120}
	if err := WriteSegment(&buf, meta, goldenTracks()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 128<<10 {
		t.Fatalf("golden segment is %d bytes, want more than 128 KiB", buf.Len())
	}
	return buf.Bytes()
}

// TestReadSegmentShortReads reads the golden segment through sources that
// return one byte, half the request, or the last bytes together with
// io.EOF: every refill path of the reader's buffer. Each read must give the
// same segment, and its re-encoding the same bytes.
func TestReadSegmentShortReads(t *testing.T) {
	data := goldenSegment(t)
	for name, src := range map[string]func() io.Reader{
		"whole":    func() io.Reader { return bytes.NewReader(data) },
		"one_byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
		"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
		"data_err": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
	} {
		meta, perClip, err := ReadSegment(src())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !tracksEqual(perClip, goldenTracks()) {
			t.Fatalf("%s: tracks differ from the ones written", name)
		}
		var again bytes.Buffer
		if err := WriteSegment(&again, meta, perClip); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("%s: re-encoding differs from the file read", name)
		}
	}
}

// TestReadSegmentRejectsDamageAtBufferBoundaries truncates the golden
// segment at every length within 16 bytes of a 64 KiB boundary and of its
// end, and flips one bit at every 499th byte: each file must be refused,
// never read and never a panic.
func TestReadSegmentRejectsDamageAtBufferBoundaries(t *testing.T) {
	data := goldenSegment(t)
	var cuts []int
	for b := bufSize; b < len(data)-16; b += bufSize {
		for n := b - 16; n <= b+16; n++ {
			cuts = append(cuts, n)
		}
	}
	for n := len(data) - 16; n < len(data); n++ {
		cuts = append(cuts, n)
	}
	for _, n := range cuts {
		if _, _, err := ReadSegment(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("segment truncated to %d of %d bytes read without error", n, len(data))
		}
	}
	bad := make([]byte, len(data))
	for off := 0; off < len(data); off += 499 {
		copy(bad, data)
		bad[off] ^= 1 << (off % 8)
		if _, _, err := ReadSegment(bytes.NewReader(bad)); err == nil {
			t.Errorf("segment with bit %d of byte %d flipped read without error", off%8, off)
		}
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errDiskFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriterReturnsDestinationError: a destination that fails after the
// first buffer fails WriteSegment with its error.
func TestWriterReturnsDestinationError(t *testing.T) {
	meta := SegmentMeta{Dataset: "caldot1", ID: "seg-00003"}
	for _, n := range []int{0, 10, bufSize + 10, 200 << 10} {
		if err := WriteSegment(&failAfter{n: n}, meta, goldenTracks()); !errors.Is(err, errDiskFull) {
			t.Errorf("destination failing after %d bytes: WriteSegment = %v, want %v", n, err, errDiskFull)
		}
	}
}

// TestWritersRefuseWhatReadersRefuse: a string, a count or a shape past the
// limit a reader holds it to fails the write with an error naming the
// limit, and at the limit the file is written and reads back. The track
// body's per-clip, per-track and per-path counts (1<<24) and a float
// slice's length (1<<26) share their constants with the reader too; a test
// file past them would take 128 MiB to 1.3 GiB, so they are not built
// here.
func TestWritersRefuseWhatReadersRefuse(t *testing.T) {
	long := strings.Repeat("a", maxStr+1)
	oneTrack := func(trackCat, detCat string) [][]*query.Track {
		return [][]*query.Track{{{ID: 1, Category: trackCat, Dets: []detect.Detection{{Category: detCat}}}}}
	}
	meta := SegmentMeta{Dataset: "d", ID: "seg-00000", FPS: 10}
	for _, tc := range []struct {
		name    string
		write   func(io.Writer) error
		refused bool
	}{
		{"segment dataset name", func(w io.Writer) error { return WriteSegment(w, SegmentMeta{Dataset: long}, nil) }, true},
		{"segment id", func(w io.Writer) error { return WriteSegment(w, SegmentMeta{ID: long}, nil) }, true},
		{"track category", func(w io.Writer) error { return WriteSegment(w, meta, oneTrack(long, "car")) }, true},
		{"detection category", func(w io.Writer) error { return WriteSegment(w, meta, oneTrack("car", long)) }, true},
		{"detection category at the limit", func(w io.Writer) error { return WriteSegment(w, meta, oneTrack("car", long[1:])) }, false},
		{"track file dataset name", func(w io.Writer) error { return WriteTracksV2(w, nil, TrackMeta{Dataset: long}) }, true},
		{"clips", func(w io.Writer) error { return WriteSegment(w, meta, make([][]*query.Track, maxClips+1)) }, true},
		{"clips at the limit", func(w io.Writer) error { return WriteSegment(w, meta, make([][]*query.Track, maxClips)) }, false},
	} {
		var buf bytes.Buffer
		err := tc.write(&buf)
		switch {
		case tc.refused && (err == nil || !strings.Contains(err.Error(), "a reader accepts")):
			t.Errorf("%s: write = %v, want an error naming the reader's limit", tc.name, err)
		case !tc.refused && err != nil:
			t.Errorf("%s: write = %v", tc.name, err)
		case !tc.refused:
			if _, _, err := ReadSegment(&buf); err != nil {
				t.Errorf("%s: written file does not read back: %v", tc.name, err)
			}
		}
	}
}

// TestSaveModelsRefusesWhatLoadModelsRefuses: each bundle count the loader
// bounds, one past its bound, and a dense layer or background plane whose
// data does not match its stated shape, fail SaveModels.
func TestSaveModelsRefusesWhatLoadModelsRefuses(t *testing.T) {
	if err := SaveModels(io.Discard, goldenSystem()); err != nil {
		t.Fatalf("unedited bundle: %v", err)
	}
	dense := func(in, out int) *nn.Dense {
		return &nn.Dense{In: in, Out: out, W: make(nn.Vec, in*out), B: make(nn.Vec, out)}
	}
	for _, tc := range []struct {
		name string
		edit func(s *core.System)
	}{
		{"proxies", func(s *core.System) {
			s.Proxies = make([]*proxy.Model, maxProxies+1)
			for i := range s.Proxies {
				s.Proxies[i] = proxy.FromWeights(8, 8, &nn.LogReg{W: make(nn.Vec, 9)})
			}
		}},
		{"window sizes", func(s *core.System) { s.WindowSizes = make([][2]int, maxWindowSizes+1) }},
		{"clusters", func(s *core.System) {
			c := s.Refiner.Clusters[0]
			s.Refiner = &refine.Refiner{Clusters: make([]*refine.Cluster, maxClusters+1)}
			for i := range s.Refiner.Clusters {
				s.Refiner.Clusters[i] = c
			}
		}},
		{"center points", func(s *core.System) {
			s.Refiner = &refine.Refiner{Clusters: []*refine.Cluster{{Center: make(geom.Path, maxCenter+1), Size: 1}}}
		}},
		{"MLP layers", func(s *core.System) {
			s.Pair.Match = &nn.MLP{Layers: make([]*nn.Dense, maxLayers+1)}
			for i := range s.Pair.Match.Layers {
				s.Pair.Match.Layers[i] = dense(2, 2)
			}
		}},
		{"MLP without layers", func(s *core.System) { s.Pair.Match = &nn.MLP{} }},
		{"dense inputs", func(s *core.System) { s.Pair.Match = &nn.MLP{Layers: []*nn.Dense{dense(maxDenseDim+1, 1)}} }},
		{"dense weights short", func(s *core.System) {
			d := dense(3, 2)
			d.W = d.W[:5]
			s.Pair.Match = &nn.MLP{Layers: []*nn.Dense{d}}
		}},
		// Past the plane's bound, without the 64 MiB of pixels it would hold.
		{"background plane", func(s *core.System) {
			s.Background = detect.NewBackgroundModel(&video.Frame{W: 1<<13 + 1, H: 1 << 13, NomW: 1280, NomH: 720})
		}},
		{"background pixels short", func(s *core.System) {
			f := video.NewFrame(4, 4, 1280, 720)
			f.Pix = f.Pix[:15]
			s.Background = detect.NewBackgroundModel(f)
		}},
	} {
		sys := goldenSystem()
		tc.edit(sys)
		if err := SaveModels(io.Discard, sys); err == nil {
			t.Errorf("%s: SaveModels accepted a bundle LoadModels refuses", tc.name)
		}
	}
}

// TestWriteSegmentAllocGate: a WriteSegment call allocates its writer's
// buffer and nothing per field, so ten times the tracks allocate the same. When each field's bytes escaped into a bufio.Writer,
// every number was an allocation of its own.
func TestWriteSegmentAllocGate(t *testing.T) {
	meta := SegmentMeta{Dataset: "caldot1", ID: "seg-00000", FPS: 10, NomW: 1280, NomH: 720, Frames: 120}
	one := goldenTracks()
	var ten [][]*query.Track
	for range 10 {
		ten = append(ten, one...)
	}
	allocs := func(perClip [][]*query.Track) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := WriteSegment(io.Discard, meta, perClip); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(one), allocs(ten); a != b {
		t.Errorf("WriteSegment allocated %.0f times for %d clips and %.0f for %d", a, len(one), b, len(ten))
	} else {
		t.Logf("%.0f allocations per WriteSegment at %d and %d clips", a, len(one), len(ten))
	}
}
