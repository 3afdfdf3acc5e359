package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"otif/internal/core"
	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/obs"
	"otif/internal/persist"
	"otif/internal/query"
	"otif/internal/store"
	"otif/internal/vidsim"
)

// query-mix serves queries from a paper-scale store. The tracks are the
// simulator's ground truth sampled at gap 4, not pipeline output, so no
// change to extraction can move this workload. One caller, closed loop,
// on the *store.Sharded that store.OpenSegmentsDir returns.
//
// A track pass is count, breakdown, dwell, braking and speeding; a frame
// pass is limit, avgvisible, busy and cooccurrences. Every pass draws new
// parameters, so the result cache fills and never hits, except that count
// and avgvisible take only a category and are therefore answered from the
// cache once set-up's first pass has run; their cold cost is in the traced
// run's store.count_p50_us and store.avgvisible_p50_us.

const archiveName = "archive"

// archive is the generated input of query-mix and serve-live.
type archive struct {
	ctx       query.Context
	movements []query.Movement
	perClip   [][]*query.Track
	dets      int
}

// truthTracks turns a world's ground truth, sampled every gap frames,
// into stored tracks.
func truthTracks(w *vidsim.World, gap int) []*query.Track {
	byID := map[int]*query.Track{}
	for f := 0; f < w.FrameCount(); f += gap {
		for _, g := range w.VisibleAt(f) {
			t := byID[g.ID]
			if t == nil {
				t = &query.Track{ID: g.ID, Category: string(g.Cat)}
				byID[g.ID] = t
			}
			t.Dets = append(t.Dets, detect.Detection{FrameIdx: f, Box: g.Box, Score: 1, Category: string(g.Cat)})
			t.Path = append(t.Path, g.Box.Center())
		}
	}
	out := make([]*query.Track, 0, len(byID))
	for _, t := range byID {
		if len(t.Dets) >= 2 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func buildArchive(seed int64, clips int, clipSec float64) (*archive, error) {
	ds, err := dataset.Build("tokyo", dataset.SetSpec{ClipSeconds: clipSec}, trainSeed)
	if err != nil {
		return nil, err
	}
	a := &archive{movements: core.MovementsFor(ds), perClip: make([][]*query.Track, clips)}
	cam := camera(ds, seed, clipSec)
	for i := range a.perClip {
		w := cam(i).World
		a.perClip[i] = truthTracks(w, 4)
		for _, t := range a.perClip[i] {
			a.dets += len(t.Dets)
		}
		a.ctx = query.Context{FPS: ds.Cfg.FPS, NomW: ds.Cfg.NomW, NomH: ds.Cfg.NomH, Frames: w.FrameCount()}
	}
	return a, nil
}

// export writes the first clips clips as segment files into dir and
// returns their total size.
func (a *archive) export(dir string, clips, clipsPerSeg int) (int64, error) {
	paths, err := store.ExportSegments(dir, archiveName, a.ctx, a.perClip[:clips], clipsPerSeg)
	if err != nil {
		return 0, err
	}
	var size int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		size += st.Size()
	}
	return size, nil
}

func openArchive(dir string) (*store.Sharded, error) {
	m, err := store.OpenSegmentsDir(dir, store.NewCache())
	if err != nil {
		return nil, err
	}
	sh := m[archiveName]
	if sh == nil {
		return nil, fmt.Errorf("no %q dataset in %s", archiveName, dir)
	}
	return sh, nil
}

// passParams are one pass's query parameters.
type passParams struct {
	maxDist      float64
	region       geom.Polygon
	decel, speed float64
	limitN       int
	minSep       int
	busyA, busyB int
	coocDist     float64
}

// newParams draws parameters no earlier pass used: the floats are
// continuous draws, the integer ones count up with the pass number.
func (a *archive) newParams(rng *rand.Rand, pass int) passParams {
	w, h := float64(a.ctx.NomW), float64(a.ctx.NomH)
	x, y := rng.Float64()*w*0.5, rng.Float64()*h*0.5
	rw, rh := w*(0.2+0.3*rng.Float64()), h*(0.2+0.3*rng.Float64())
	return passParams{
		maxDist:  w * (0.18 + 0.08*rng.Float64()),
		region:   geom.Polygon{{X: x, Y: y}, {X: x + rw, Y: y}, {X: x + rw, Y: y + rh}, {X: x, Y: y + rh}},
		decel:    200 + 400*rng.Float64(),
		speed:    120 + 120*rng.Float64(),
		limitN:   2 + pass%3,
		minSep:   a.ctx.FPS + pass,
		busyA:    2 + pass%3,
		busyB:    1 + pass/3,
		coocDist: 60 + 60*rng.Float64(),
	}
}

// The query kinds, each as one call on a querier. trackKinds make up a
// track pass and frameKinds a frame pass, in this order.
type kindFunc func(q store.Querier, a *archive, p passParams) any

var kindFuncs = map[string]kindFunc{
	"count": func(q store.Querier, _ *archive, _ passParams) any { return q.CountTracks("car") },
	"breakdown": func(q store.Querier, a *archive, p passParams) any {
		return q.PathBreakdown("car", a.movements, p.maxDist)
	},
	"dwell":    func(q store.Querier, _ *archive, p passParams) any { return q.DwellTime("car", p.region) },
	"braking":  func(q store.Querier, _ *archive, p passParams) any { return q.HardBraking(p.decel) },
	"speeding": func(q store.Querier, _ *archive, p passParams) any { return q.Speeding(p.speed) },
	"limit": func(q store.Querier, _ *archive, p passParams) any {
		return q.LimitQuery("car", query.CountPredicate{N: p.limitN}, 5, p.minSep)
	},
	"avgvisible": func(q store.Querier, _ *archive, _ passParams) any { return q.AvgVisible("car") },
	"busy": func(q store.Querier, _ *archive, p passParams) any {
		return q.BusyFrames("car", p.busyA, "bus", p.busyB)
	},
	"cooc": func(q store.Querier, _ *archive, p passParams) any { return q.CoOccurrences("car", p.coocDist) },
}

var (
	trackKinds = []string{"count", "breakdown", "dwell", "braking", "speeding"}
	frameKinds = []string{"limit", "avgvisible", "busy", "cooc"}
)

// reference answers kind for one clip by the linear scan of
// internal/query over the generated tracks, which the store's answer for
// that clip must equal (so the segment files' round trip is checked too).
func (a *archive) reference(kind string, clip int, p passParams) any {
	t := a.perClip[clip]
	switch kind {
	case "count":
		return query.CountTracks(t, "car")
	case "breakdown":
		return query.PathBreakdown(t, "car", a.movements, p.maxDist)
	case "dwell":
		return query.DwellTime(t, "car", p.region, a.ctx)
	case "braking":
		return query.HardBraking(t, a.ctx, p.decel)
	case "speeding":
		return query.Speeding(t, a.ctx, p.speed)
	case "limit":
		return query.LimitQuery(t, "car", query.CountPredicate{N: p.limitN}, a.ctx, 5, p.minSep)
	case "avgvisible":
		return query.AvgVisible(t, "car", a.ctx)
	case "busy":
		return query.BusyFrames(t, "car", p.busyA, "bus", p.busyB, a.ctx)
	case "cooc":
		return query.CoOccurrences(t, "car", p.coocDist, a.ctx)
	}
	panic("unknown query kind " + kind)
}

// pass runs the kinds in order, with a span each, and returns the answers.
func (c *runCtx) pass(name string, q store.Querier, a *archive, kinds []string, p passParams, n int) []any {
	id := c.tr.begin(name, laneMain, -1, n)
	out := make([]any, len(kinds))
	for i, k := range kinds {
		kid := c.tr.begin("store."+k, laneMain, id, -1)
		out[i] = kindFuncs[k](q, a, p)
		c.tr.end(kid)
	}
	c.tr.end(id)
	c.ops(len(kinds))
	return out
}

// verify compares one kind's answer for one clip with the reference.
func (c *runCtx) verify(a *archive, kind string, answer any, clip int, p passParams) {
	got := reflect.ValueOf(answer).Index(clip).Interface()
	if want := a.reference(kind, clip, p); !reflect.DeepEqual(got, want) {
		c.fail("%s clip %d: store answer differs from the linear scan", kind, clip)
	}
}

func runQueryMix(c *runCtx) error {
	a, err := buildArchive(c.seed, c.sz.archiveClips, c.sz.archiveClipSec)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(c.seed))
	nextPass := 0
	draw := func() passParams { nextPass++; return a.newParams(rng, nextPass) }

	// Set-up: export, open, first pass of each kind.
	var sh *store.Sharded
	var segBytes int64
	var openMS float64
	rep := 0
	if err := c.setup(func() (err error) {
		dir := filepath.Join(c.tmpDir, fmt.Sprintf("segments-%d", rep))
		rep++
		if segBytes, err = a.export(dir, len(a.perClip), c.sz.clipsPerSeg); err != nil {
			return err
		}
		t0 := time.Now()
		if sh, err = openArchive(dir); err != nil {
			return err
		}
		openMS = ms(time.Since(t0))
		p := draw()
		c.pass("track pass", sh, a, trackKinds, p, 0)
		c.pass("frame pass", sh, a, frameKinds, p, 0)
		return nil
	}); err != nil {
		return err
	}
	c.op(sh.Clips() == len(a.perClip), "opened %d clips, exported %d", sh.Clips(), len(a.perClip))
	if c.traced {
		return traceQueryMix(c, a, sh, openMS, draw)
	}

	// Rounds of ten track passes, one frame pass and a hundred warm passes:
	// passes with one parameter set over and over, so that every segment
	// answer comes from the result cache. The three are interleaved so that
	// each samples the whole run, and a round is one stretch for the machine
	// factor (calib.go). The throughput is the query calls of a round over
	// the median round's time.
	var tracks, frames, rounds timing
	timed := func(name string, kinds []string, p passParams, n int) (float64, []any) {
		t0 := time.Now()
		ans := c.pass(name, sh, a, kinds, p, n)
		return ms(time.Since(t0)), ans
	}
	allKinds := append(append([]string{}, trackKinds...), frameKinds...)
	warm := draw()
	want := c.pass("warm pass", sh, a, allKinds, warm, 0)
	c.gaugeStart()
	deadline := time.Now().Add(c.phase(1))
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		var busyMS float64 // the round's passes, without the checks between them
		trackMS := make([]float64, 10)
		for i := range trackMS {
			p := draw()
			ms, ans := timed("track pass", trackKinds, p, round*10+i)
			busyMS += ms
			trackMS[i] = ms
			if i == round%10 { // one kind on one clip per round
				k := round % len(trackKinds)
				c.verify(a, trackKinds[k], ans[k], rng.Intn(len(a.perClip)), p)
			}
		}
		p := draw()
		frameMS, ans := timed("frame pass", frameKinds, p, round)
		busyMS += frameMS
		k := round % len(frameKinds)
		c.verify(a, frameKinds[k], ans[k], rng.Intn(len(a.perClip)), p)

		for i := 0; i < 100; i++ {
			ms, ans := timed("warm pass", allKinds, warm, round*100+i)
			busyMS += ms
			if i == 0 && !reflect.DeepEqual(ans, want) {
				c.fail("round %d: cached answers differ from the first", round)
			}
		}
		f := c.factor()
		tracks.add(f, trackMS...)
		frames.add(f, frameMS)
		rounds.add(f, busyMS)
	}
	callsPerRound := float64(10*len(trackKinds) + len(frameKinds) + 100*len(allKinds))
	c.setTiming("op", &tracks)
	c.setTiming("op2", &frames)
	c.set("throughput", callsPerRound*1000/median(rounds.norm))
	c.set("quality", float64(a.dets)/(float64(segBytes)/1024))
	return nil
}

// traceQueryMix collects the persist and store ledger.
func traceQueryMix(c *runCtx, a *archive, sh *store.Sharded, openMS float64, draw func() passParams) error {
	c.set("store.open_ms", openMS)

	// persist: encode and decode the whole track set in memory.
	mbps := func(n int, d time.Duration) float64 { return float64(n) / (1 << 20) / d.Seconds() }
	var buf bytes.Buffer
	meta := persist.TrackMeta{FPS: a.ctx.FPS, NomW: a.ctx.NomW, NomH: a.ctx.NomH, Frames: a.ctx.Frames, Dataset: archiveName}
	t0 := time.Now()
	if err := persist.WriteTracksV2(&buf, a.perClip, meta); err != nil {
		return err
	}
	c.set("persist.write_tracks_mb_s", mbps(buf.Len(), time.Since(t0)))
	n := buf.Len()
	t0 = time.Now()
	back, _, err := persist.ReadTracksAuto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	c.set("persist.read_tracks_mb_s", mbps(n, time.Since(t0)))
	c.op(reflect.DeepEqual(back, a.perClip), "track file does not round-trip")
	buf.Reset()
	smeta := persist.SegmentMeta{Dataset: archiveName, ID: store.SegmentID(0), FPS: a.ctx.FPS, NomW: a.ctx.NomW, NomH: a.ctx.NomH, Frames: a.ctx.Frames}
	t0 = time.Now()
	if err := persist.WriteSegment(&buf, smeta, a.perClip); err != nil {
		return err
	}
	c.set("persist.write_segment_mb_s", mbps(buf.Len(), time.Since(t0)))
	n = buf.Len()
	t0 = time.Now()
	if _, back, err = persist.ReadSegment(bytes.NewReader(buf.Bytes())); err != nil {
		return err
	}
	c.set("persist.read_segment_mb_s", mbps(n, time.Since(t0)))
	c.op(reflect.DeepEqual(back, a.perClip), "segment file does not round-trip")
	back = nil
	buf = bytes.Buffer{}

	// Index build time and the heap a built index holds beyond its tracks.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	mono := store.New(a.perClip, a.ctx)
	c.set("store.index_build_ms", ms(time.Since(t0)))
	runtime.GC()
	runtime.ReadMemStats(&m1)
	c.set("store.heap_mb", float64(m1.HeapAlloc-m0.HeapAlloc)/(1<<20))
	runtime.KeepAlive(mono)

	// Each kind alone, on the same segments without a result cache.
	cold, err := store.NewSharded(archiveName, a.ctx, sh.Segments(), nil)
	if err != nil {
		return err
	}
	perKind := c.phase(0.8) / time.Duration(len(queryKinds))
	for _, k := range append(append([]string{}, trackKinds...), frameKinds...) {
		var callUS []float64
		runtime.ReadMemStats(&m0)
		deadline := time.Now().Add(perKind)
		for len(callUS) < 3 || time.Now().Before(deadline) {
			p := draw()
			id := c.tr.begin("store."+k, laneMain, -1, len(callUS))
			t0 := time.Now()
			ans := kindFuncs[k](cold, a, p)
			callUS = append(callUS, us(time.Since(t0)))
			c.tr.end(id)
			c.ops(1)
			if len(callUS) == 1 {
				c.verify(a, k, ans, len(callUS)%len(a.perClip), p)
			}
		}
		runtime.ReadMemStats(&m1)
		calls := float64(len(callUS))
		c.set("store."+k+"_p50_us", median(callUS))
		c.set("store."+k+"_allocs", float64(m1.Mallocs-m0.Mallocs)/calls)
		if k == "limit" {
			c.set("store.limit_bytes_per_call", float64(m1.TotalAlloc-m0.TotalAlloc)/calls)
		}
	}
	// Point lookups, compared with the scan now and then.
	rng := rand.New(rand.NewSource(c.seed + 1))
	lookups := c.sz.lookups / 4
	lookupUS := make([]float64, lookups)
	runtime.ReadMemStats(&m0)
	for i := range lookupUS {
		clip, frame := rng.Intn(len(a.perClip)), rng.Intn(a.ctx.Frames)
		t0 := time.Now()
		boxes, _ := cold.VisibleBoxes(clip, "car", frame)
		lookupUS[i] = us(time.Since(t0))
		if i%1000 == 0 {
			want, _ := query.VisibleBoxes(a.perClip[clip], "car", frame)
			c.op(reflect.DeepEqual(boxes, want), "visibleboxes clip %d frame %d differs from the scan", clip, frame)
		}
	}
	runtime.ReadMemStats(&m1)
	c.ops(lookups)
	c.set("store.visibleboxes_p50_us", median(lookupUS))
	c.set("store.visibleboxes_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(lookups))

	// The untraced run's mix at quarter length, for the cache's and the
	// temporal index's ratios.
	kept, examined := obs.Default.Counter("store.candidates_kept"), obs.Default.Counter("store.candidates_examined")
	k0, e0 := kept.Value(), examined.Value()
	s0 := sh.Cache().Stats()
	deadline := time.Now().Add(c.phase(0.8))
	for round := 0; round < 1 || time.Now().Before(deadline); round++ {
		for i := 0; i < 10; i++ {
			c.pass("track pass", sh, a, trackKinds, draw(), round*10+i)
		}
		c.pass("frame pass", sh, a, frameKinds, draw(), round)
	}
	p := draw()
	c.pass("warm pass", sh, a, trackKinds, p, 0)
	var hitUS []float64
	deadline = time.Now().Add(c.phase(0.2))
	for len(hitUS) < 10 || time.Now().Before(deadline) {
		t0 := time.Now()
		sh.DwellTime("car", p.region)
		hitUS = append(hitUS, us(time.Since(t0)))
		c.pass("warm pass", sh, a, trackKinds, p, len(hitUS))
	}
	s1 := sh.Cache().Stats()
	hits, all := s1.Hits-s0.Hits, (s1.Hits-s0.Hits)+(s1.Fills-s0.Fills)+(s1.Dedup-s0.Dedup)
	c.set("store.cache_hit_us", median(hitUS))
	c.set("store.cache_hit_rate", ratio(float64(hits), float64(all)))
	c.set("store.cache_entries", float64(sh.Cache().Len()))
	c.set("store.candidates_kept_share", ratio(float64(kept.Value()-k0), float64(examined.Value()-e0)))

	// Live appends: the cost of publishing a clip into an empty live store
	// and into one that holds two hundred.
	live := store.NewLive(a.ctx)
	appendUS := make([]float64, 200)
	for i := range appendUS {
		tracks := a.perClip[i%len(a.perClip)]
		t0 := time.Now()
		live.Append(tracks)
		appendUS[i] = us(time.Since(t0))
	}
	c.ops(len(appendUS))
	c.set("store.live_append_us_at1", median(appendUS[:8]))
	c.set("store.live_append_us_at200", median(appendUS[len(appendUS)-8:]))
	c.op(live.Clips() == len(appendUS), "live store holds %d clips after %d appends", live.Clips(), len(appendUS))
	return nil
}
