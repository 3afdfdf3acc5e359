package detect

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"otif/internal/costmodel"
	"otif/internal/video"
)

// stamped is what Detect must return for a frame at index idx: the
// uncached computation with every FrameIdx set to idx.
func stamped(d *Detector, frame *video.Frame, idx int) []Detection {
	out := d.detect(frame)
	for i := range out {
		out[i].FrameIdx = idx
	}
	return out
}

// TestDetectEntryPerConfigAndBackground: each field of the configuration,
// and the background model, selects an entry of its own, charged 80 bytes
// per detection plus the entry overhead; a repeat only hits. A new
// background model with the same pixels is a new detector, not served the
// old model's entries.
func TestDetectEntryPerConfigAndBackground(t *testing.T) {
	defer video.SetCacheBudget(video.DefaultCacheBytes)
	video.SetCacheBudget(video.DefaultCacheBytes)

	frame, bg, _ := benchScene()
	cls := SizeClassifier{BusMinArea: 3000}
	base := Config{Arch: ArchRCNN, Width: frame.NomW, Height: frame.NomH, ConfThresh: 0.25}
	variants := map[string]*Detector{"base": {Cfg: base, Background: bg, Classify: cls}}
	vary := func(name string, edit func(*Config)) {
		cfg := base
		edit(&cfg)
		variants[name] = &Detector{Cfg: cfg, Background: bg, Classify: cls}
	}
	vary("arch", func(c *Config) { c.Arch = ArchYOLO })
	vary("width", func(c *Config) { c.Width /= 2 })
	vary("height", func(c *Config) { c.Height /= 2 })
	vary("conf", func(c *Config) { c.ConfThresh = 0.8 }) // drops every detection of the scene
	variants["classifier"] = &Detector{Cfg: base, Background: bg, Classify: SizeClassifier{BusMinArea: 10}}
	variants["background"] = &Detector{Cfg: base, Background: NewBackgroundModel(bg.Frame()), Classify: cls}

	ids := map[uint64]string{}
	for name, d := range variants {
		id := d.Background.detectorID(d.Cfg, d.Classify)
		if other, ok := ids[id]; ok || id == 0 {
			t.Fatalf("%s has identity %d, as %q", name, id, other)
		}
		ids[id] = name

		want := stamped(d, frame, 5) // fills the analysis downsample, not the detection
		before := video.GlobalCacheStats()
		got := d.Detect(frame, 5)
		fill := video.GlobalCacheStats()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Detect = %v, want %v", name, got, want)
		}
		if fill.Misses-before.Misses != 1 || fill.Entries-before.Entries != 1 {
			t.Errorf("%s: first Detect: %d misses, %d entries added; want one detection entry",
				name, fill.Misses-before.Misses, fill.Entries-before.Entries)
		}
		if charged := fill.Bytes - before.Bytes; charged != int64(160+80*len(want)) {
			t.Errorf("%s: entry charged %d bytes for %d detections, want 160 + 80 per detection", name, charged, len(want))
		}
		if again := d.Detect(frame, 5); !reflect.DeepEqual(again, want) {
			t.Errorf("%s: repeated Detect = %v, want %v", name, again, want)
		}
		if hit := video.GlobalCacheStats(); hit.Misses != fill.Misses || hit.Hits != fill.Hits+1 {
			t.Errorf("%s: repeated Detect: stats %+v after %+v, want one hit", name, hit, fill)
		}
	}
	base0 := variants["base"].Detect(frame, 0)
	if len(base0) == 0 || len(variants["conf"].Detect(frame, 0)) != 0 {
		t.Error("the scene must have detections, all under the conf variant's threshold")
	}
	if reflect.DeepEqual(variants["classifier"].Detect(frame, 0), base0) {
		t.Error("the two classifiers agree on every detection; the classifier entry is untested")
	}
}

// TestDetectStampsEachIndex: a source that serves one *Frame at two
// indices gets one entry for it, and each index its own FrameIdx.
func TestDetectStampsEachIndex(t *testing.T) {
	frame, bg, _ := benchScene()
	src := &video.MemorySource{Frames: []*video.Frame{frame, frame}, Rate: 10}
	d := &Detector{Cfg: Config{Arch: ArchRCNN, Width: frame.NomW, Height: frame.NomH, ConfThresh: 0.25},
		Background: bg, Arena: GetArena()}
	defer d.Arena.Release()
	defer d.Release()
	first, second := d.Detect(src.Frame(0), 0), d.Detect(src.Frame(1), 1)
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("got %d and %d detections, want the same non-zero count", len(first), len(second))
	}
	for i := range first {
		if first[i].FrameIdx != 0 || second[i].FrameIdx != 1 {
			t.Errorf("detection %d: FrameIdx %d and %d, want 0 and 1", i, first[i].FrameIdx, second[i].FrameIdx)
		}
	}
}

// TestDetectUncachedWithoutIdentity: a NaN confidence threshold gives the
// detector no identity; Detect computes every call and adds no entry.
func TestDetectUncachedWithoutIdentity(t *testing.T) {
	defer video.SetCacheBudget(video.DefaultCacheBytes)
	video.SetCacheBudget(video.DefaultCacheBytes)

	frame, bg, _ := benchScene()
	cfg := Config{Arch: ArchRCNN, Width: frame.NomW, Height: frame.NomH, ConfThresh: 0.25}
	nan := cfg
	nan.ConfThresh = math.NaN()
	for name, d := range map[string]*Detector{
		"NaN threshold": {Cfg: nan, Background: bg},
	} {
		if id := bg.detectorID(d.Cfg, d.Classify); id != 0 {
			t.Errorf("%s: identity %d, want 0", name, id)
		}
		want := stamped(d, frame, 2)
		before := video.GlobalCacheStats()
		for i := 0; i < 2; i++ {
			if got := d.Detect(frame, 2); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Detect = %v, want %v", name, got, want)
			}
		}
		if after := video.GlobalCacheStats(); after.Entries != before.Entries || after.Misses != before.Misses {
			t.Errorf("%s: stats %+v after %+v, want no new entry or miss", name, after, before)
		}
	}
	if len(bg.detectors) != 0 {
		t.Errorf("detectors without identity left %d table entries", len(bg.detectors))
	}
}

// TestDetectorIDTableBounded: the identity table of a background holds one
// entry per distinct configuration asked of it, however often each is
// asked, and answers each with the same identity.
func TestDetectorIDTableBounded(t *testing.T) {
	_, bg, _ := benchScene()
	cls := SizeClassifier{BusMinArea: 3000}
	cfgs := []Config{
		{Arch: ArchYOLO, Width: 448, Height: 252, ConfThresh: 0.25},
		{Arch: ArchYOLO, Width: 448, Height: 252, ConfThresh: 0.4},
		{Arch: ArchRCNN, Width: 896, Height: 504, ConfThresh: 0.25},
	}
	first := make([]uint64, len(cfgs))
	for round := 0; round < 100; round++ {
		for i, cfg := range cfgs {
			id := bg.detectorID(cfg, cls)
			if round == 0 {
				first[i] = id
			} else if id != first[i] {
				t.Fatalf("round %d: config %d has identity %d, first %d", round, i, id, first[i])
			}
		}
		nan := cfgs[0]
		nan.ConfThresh = math.NaN()
		bg.detectorID(nan, cls)
	}
	if len(bg.detectors) != len(cfgs) {
		t.Errorf("identity table holds %d entries for %d configurations", len(bg.detectors), len(cfgs))
	}
}

// TestDetectConcurrentFill detects frames from several goroutines, each
// with its own detector of one configuration, as parallel clip workers do:
// they race to fill and read the same entries, and every result must be
// the serial one. Run with -race.
func TestDetectConcurrentFill(t *testing.T) {
	defer video.SetCacheBudget(video.DefaultCacheBytes)
	video.SetCacheBudget(video.DefaultCacheBytes)

	frame, bg, _ := benchScene()
	frames := []*video.Frame{frame}
	for k := 1; k < 4; k++ {
		f := video.NewFrame(frame.W, frame.H, frame.NomW, frame.NomH)
		for i, v := range frame.Pix {
			f.Pix[(i+k*37)%len(f.Pix)] = v
		}
		frames = append(frames, f)
	}
	cfg := Config{Arch: ArchYOLO, Width: frame.NomW / 2, Height: frame.NomH / 2, ConfThresh: 0.2}
	ref := &Detector{Cfg: cfg, Background: bg}
	want := make([][]Detection, len(frames))
	for i, f := range frames {
		want[i] = ref.detect(f)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := &Detector{Cfg: cfg, Background: bg, Acct: costmodel.NewAccountant()}
			if g%2 == 0 {
				d.Arena = GetArena()
				defer d.Arena.Release()
			}
			defer d.Release()
			for i := 0; i < 40; i++ {
				fi := (g + i) % len(frames)
				got := d.Detect(frames[fi], 0)
				if !reflect.DeepEqual(got, want[fi]) {
					t.Errorf("goroutine %d pass %d: frame %d differs from the serial detections", g, i, fi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDetectAllocGate pins the two halves of Detect. A cache hit with an
// arena allocates nothing: the detections are copied into the arena and
// stamped in place. The fill allocates exactly the slice it keeps, which is
// what an uncached Detect without an arena allocated before detections
// were cached: the scratch and the background planes are reused.
func TestDetectAllocGate(t *testing.T) {
	frame, bg, _ := benchScene()
	d := &Detector{Cfg: Config{Arch: ArchRCNN, Width: frame.NomW, Height: frame.NomH, ConfThresh: 0.25},
		Background: bg, Classify: SizeClassifier{BusMinArea: 3000}, Arena: GetArena()}
	defer d.Arena.Release()
	defer d.Release()
	if len(d.Detect(frame, 0)) == 0 {
		t.Fatal("the scene yields no detection; the gate is vacuous")
	}
	if n := testing.AllocsPerRun(100, func() {
		d.Arena.slabs[0], d.Arena.cur = d.Arena.slabs[0][:0], 0
		d.Detect(frame, 1)
	}); n != 0 {
		t.Errorf("a cached Detect allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.detect(frame) }); n != 1 {
		t.Errorf("detecting a frame allocates %v times, want 1 (the kept detections)", n)
	}
}
