package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"otif/internal/core"
	"otif/internal/geom"
	"otif/internal/ingest"
	"otif/internal/obs"
	"otif/internal/parallel"
	"otif/internal/query"
	"otif/internal/serve"
	"otif/internal/store"
	"otif/internal/video"
)

// serve-live puts reads beside writes. A serve.Server on a loopback TCP
// listener answers /v1/query requests against two datasets: "archive", a
// prefix of query-mix's data opened from segment files, and "live", the
// store of an ingest session that extracts one camera's clips at the
// tuned configuration while the requests run. Extraction and queries
// share the cores (one extraction worker, as otifd is deployed beside its
// query load).
//
// Everything is open loop: the camera's clip i is due at start + i*100 ms
// and each of two client connections has a request due every 20 ms,
// latency counted from the due time. The traced run ends with a quarter in
// which the same two connections run closed loop.

// withinLimitMS is the latency limit, from a request's due time, whose
// hit share is serve-live's quality metric.
const withinLimitMS = 10

// reqRecord is one HTTP request as the client saw it.
type reqRecord struct {
	route, dataset string
	lateMS         float64 // send time minus due time
	latencyMS      float64 // response read minus due time
	serviceMS      float64 // response read minus send time
	bytes          int
	open           bool // sent on the open-loop schedule
	ok             bool
}

// liveRig is the system under test of serve-live, built in set-up.
type liveRig struct {
	sys   *core.System
	sh    *store.Sharded
	srv   *http.Server
	done  chan struct{} // closed when srv.Serve returns
	base  string        // http://127.0.0.1:port
	sess  atomic.Pointer[ingest.Session]
	wants wantBodies
}

// wantBodies are the answers of the fixed-parameter archive queries,
// computed by direct calls in set-up.
type wantBodies struct {
	count     []int
	breakdown []map[string]int
	limit     [][]query.FrameMatch
}

const (
	limitN      = 2
	limitK      = 5
	limitMinSep = 1.5 // seconds
)

func (r *liveRig) close() {
	if r == nil || r.srv == nil {
		return
	}
	r.srv.Close()
	<-r.done
}

func newLiveRig(c *runCtx, a *archive, dir string) (*liveRig, error) {
	r := &liveRig{}
	var err error
	if r.sys, _, err = train("tokyo", c.sz.tokyoSpec); err != nil {
		return nil, err
	}
	if _, err = a.export(dir, len(a.perClip), c.sz.clipsPerSeg); err != nil {
		return nil, err
	}
	if r.sh, err = openArchive(dir); err != nil {
		return nil, err
	}
	r.wants = wantBodies{
		count:     r.sh.CountTracks("car"),
		breakdown: r.sh.PathBreakdown("car", a.movements, 0.22*float64(a.ctx.NomW)),
		limit:     r.sh.LimitQuery("car", query.CountPredicate{N: limitN}, limitK, int(limitMinSep*float64(a.ctx.FPS))),
	}
	reg := store.NewRegistry()
	reg.Register(archiveName, r.sh)
	reg.Register("live", store.ProviderFunc(func() store.Querier {
		if s := r.sess.Load(); s != nil {
			return s.Live().Snapshot()
		}
		return nil
	}))
	api := &serve.Server{Queries: &serve.QueryAPI{
		Datasets:  reg,
		Movements: func() []query.Movement { return a.movements },
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.srv = &http.Server{Handler: api.Handler()}
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		r.srv.Serve(ln) // returns http.ErrServerClosed after close()
	}()
	return r, nil
}

// client is one connection's load generator.
type client struct {
	n    int
	hc   *http.Client
	rng  *rand.Rand
	recs []reqRecord
	seq  int
}

func newClient(n int, seed int64) *client {
	return &client{
		n:   n,
		hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		rng: rand.New(rand.NewSource(seed*31 + int64(n))),
	}
}

// next picks the next request: 40% count, 20% breakdown, 20% dwell with a
// new region, 20% limit; datasets alternate.
func (cl *client) next(r *liveRig, a *archive) (route, dataset string, req *http.Request) {
	dataset = []string{archiveName, "live"}[(cl.seq+cl.n)%2]
	cl.seq++
	var err error
	switch x := cl.rng.Float64(); {
	case x < 0.4:
		route = "count"
		req, err = http.NewRequest("GET", r.base+"/v1/query/count?category=car&dataset="+dataset, nil)
	case x < 0.6:
		route = "breakdown"
		req, err = http.NewRequest("GET", r.base+"/v1/query/breakdown?category=car&dataset="+dataset, nil)
	case x < 0.8:
		route = "dwell"
		var region [][2]float64
		for _, p := range a.newParams(cl.rng, 0).region {
			region = append(region, [2]float64{p.X, p.Y})
		}
		body, _ := json.Marshal(map[string]any{"category": "car", "region": region}) // cannot fail: plain floats
		req, err = http.NewRequest("POST", r.base+"/v1/query/dwell?dataset="+dataset, bytes.NewReader(body))
	default:
		route = "limit"
		req, err = http.NewRequest("GET", fmt.Sprintf("%s/v1/query/limit?category=car&n=%d&limit=%d&minsep=%v&dataset=%s", r.base, limitN, limitK, limitMinSep, dataset), nil)
	}
	if err != nil {
		panic(err) // the URLs are literals
	}
	return route, dataset, req
}

// do sends one request due at due and checks the answer.
func (cl *client) do(c *runCtx, mu *sync.Mutex, r *liveRig, a *archive, due time.Time, open bool) {
	route, dataset, req := cl.next(r, a)
	var clipsBefore int
	if s := r.sess.Load(); s != nil {
		clipsBefore = s.Live().Clips()
	}
	id := c.tr.begin("http."+route+"."+dataset, int32(laneClient+cl.n), -1, cl.seq)
	sent := time.Now()
	resp, err := cl.hc.Do(req)
	var body []byte
	status := 0
	if err == nil {
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	got := time.Now()
	c.tr.end(id)
	problem := ""
	switch {
	case err != nil:
		problem = err.Error()
	case status != http.StatusOK:
		problem = fmt.Sprintf("status %d", status)
	default:
		problem = r.checkBody(route, dataset, body, clipsBefore)
	}
	rec := reqRecord{
		route: route, dataset: dataset, open: open, bytes: len(body), ok: problem == "",
		lateMS:    ms(sent.Sub(due)),
		latencyMS: ms(got.Sub(due)),
		serviceMS: ms(got.Sub(sent)),
	}
	cl.recs = append(cl.recs, rec)
	mu.Lock()
	c.op(problem == "", "%s %s: %s", route, dataset, problem)
	mu.Unlock()
}

// checkBody compares an archive answer with the direct call's, and a live
// count with the number of clips published around the request.
func (r *liveRig) checkBody(route, dataset string, body []byte, clipsBefore int) string {
	var doc struct {
		PerClip json.RawMessage `json:"per_clip"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.PerClip == nil {
		return "body is not a query answer"
	}
	if dataset != archiveName {
		if route != "count" {
			return ""
		}
		var perClip []int
		if err := json.Unmarshal(doc.PerClip, &perClip); err != nil {
			return err.Error()
		}
		if after := r.sess.Load().Live().Clips(); len(perClip) < clipsBefore || len(perClip) > after {
			return fmt.Sprintf("live count covers %d clips; %d were published before the request and %d after", len(perClip), clipsBefore, after)
		}
		return ""
	}
	const differs = "answer differs from the direct call"
	switch route {
	case "count":
		var got []int
		if err := json.Unmarshal(doc.PerClip, &got); err != nil {
			return err.Error()
		}
		if !slices.Equal(got, r.wants.count) {
			return differs
		}
	case "breakdown":
		var got []map[string]int
		if err := json.Unmarshal(doc.PerClip, &got); err != nil {
			return err.Error()
		}
		if !slices.EqualFunc(got, r.wants.breakdown, maps.Equal[map[string]int, map[string]int]) {
			return differs
		}
	case "limit":
		type frame struct {
			Frame int         `json:"frame"`
			Boxes []geom.Rect `json:"boxes"`
		}
		var got [][]frame
		if err := json.Unmarshal(doc.PerClip, &got); err != nil {
			return err.Error()
		}
		same := func(g frame, w query.FrameMatch) bool {
			return g.Frame == w.FrameIdx && slices.Equal(g.Boxes, w.Boxes)
		}
		if !slices.EqualFunc(got, r.wants.limit, func(g []frame, w []query.FrameMatch) bool {
			return slices.EqualFunc(g, w, same)
		}) {
			return differs
		}
	}
	return ""
}

// touchSource notes when extraction first reads a clip (traced run only).
type touchSource struct {
	video.FrameSource
	first *atomic.Int64 // ns since the rig's epoch; 0 until touched
	epoch time.Time
}

func (s *touchSource) Frame(idx int) *video.Frame {
	if s.first.Load() == 0 {
		s.first.CompareAndSwap(0, int64(time.Since(s.epoch)))
	}
	return s.FrameSource.Frame(idx)
}

func runServeLive(c *runCtx) error {
	a, err := buildArchive(c.seed, c.sz.serveClips, c.sz.archiveClipSec)
	if err != nil {
		return err
	}
	var rig *liveRig
	rep := 0
	defer func() { rig.close() }()
	if err := c.setup(func() (err error) {
		rig.close()
		dir := filepath.Join(c.tmpDir, fmt.Sprintf("archive-%d", rep))
		rep++
		rig, err = newLiveRig(c, a, dir)
		return err
	}); err != nil {
		return err
	}

	// The camera's clips, generated before anything is timed.
	interval := c.sz.liveInterval
	// The untraced run is open loop throughout; the traced run ends with a
	// closed-loop quarter for serve.closed_rps.
	openFor, closedFor := c.phase(1), time.Duration(0)
	if c.traced {
		openFor, closedFor = c.phase(0.75), c.phase(0.25)
	}
	nClips := int((openFor + closedFor) / interval)
	if nClips < 2 {
		nClips = 2
	}
	epoch := time.Now()
	feed := camera(rig.sys.DS, c.seed, c.sz.liveClipSec)
	clips := make([]*video.Clip, nClips)
	touched := make([]atomic.Int64, nClips)
	for i := range clips {
		clips[i] = feed(i).Clip
		if c.traced {
			clips[i].Source = &touchSource{FrameSource: clips[i].Source, first: &touched[i], epoch: epoch}
		}
	}
	// One extraction worker from here on: queries and extraction share the
	// cores.
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	start := time.Now().Add(20 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	emitLate := make([]float64, nClips)
	emitted := make([]time.Time, nClips)
	var pubMu sync.Mutex
	published := map[int]time.Time{} // store clip index -> publication time

	sess, err := ingest.Start(context.Background(), rig.sys, ingest.Options{
		Cameras: []ingest.Camera{{
			Name:  "cam0",
			Limit: nClips,
			Clip: func(i int) *video.Clip {
				time.Sleep(time.Until(due(i)))
				emitted[i] = time.Now()
				emitLate[i] = ms(emitted[i].Sub(due(i)))
				return clips[i]
			},
		}},
		Cfg: tunedCfg,
		Ctx: query.Context{FPS: a.ctx.FPS, NomW: a.ctx.NomW, NomH: a.ctx.NomH, Frames: clips[0].Len()},
		Progress: func(e obs.Event) {
			if e.Kind == obs.EventIngestClip {
				now := time.Now()
				pubMu.Lock()
				published[e.Index] = now
				pubMu.Unlock()
			}
		},
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	rig.sess.Store(sess)

	// The machine factor (calib.go) of the whole run: the load is open loop,
	// so no stretch of it can be bracketed, and the kernel is swept once
	// every half second beside it instead (6 ms, about a hundredth of one
	// core). The traced run is not gauged.
	var sweeps []float64
	gaugeStop, gaugeDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(gaugeDone)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for !c.traced {
			select {
			case <-gaugeStop:
				return
			case <-tick.C:
				sweeps = append(sweeps, streamMS())
			}
		}
	}()

	// Two connections: open loop, then closed loop.
	clients := []*client{newClient(0, c.seed), newClient(1, c.seed)}
	period := time.Duration(float64(time.Second) / c.sz.clientRate)
	closedAt := start.Add(openFor)
	end := closedAt.Add(closedFor)
	var mu sync.Mutex // guards the report's operation counts
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			defer cl.hc.CloseIdleConnections()
			first := start.Add(time.Duration(cl.n) * period / 2)
			for k := 0; ; k++ {
				d := first.Add(time.Duration(k) * period)
				if !d.Before(closedAt) {
					break
				}
				time.Sleep(time.Until(d))
				cl.do(c, &mu, rig, a, d, true)
			}
			time.Sleep(time.Until(closedAt))
			for time.Now().Before(end) {
				cl.do(c, &mu, rig, a, time.Now(), false)
			}
		}(cl)
	}
	wg.Wait()
	openEnd := time.Now() // of the untraced run, which has no closed part
	err = sess.Wait()
	close(gaugeStop)
	<-gaugeDone
	if err != nil {
		return err
	}

	// Ingest: every clip emitted must have been published.
	st := sess.Stats()
	log := sess.Published()
	var freshMS, queueMS, serviceMS []float64
	for _, p := range log {
		at := published[p.StoreClip]
		// Freshness under the open-loop load: the closed loop takes every
		// core there is, extraction's too.
		if due(p.CamClip).Before(closedAt) {
			freshMS = append(freshMS, ms(at.Sub(due(p.CamClip))))
		}
		if t := touched[p.CamClip].Load(); t > 0 {
			first := epoch.Add(time.Duration(t))
			queueMS = append(queueMS, ms(first.Sub(emitted[p.CamClip])))
			serviceMS = append(serviceMS, ms(at.Sub(first)))
			c.tr.record("ingest.clip", laneIngest, p.CamClip, first, at.Sub(first))
		}
	}
	c.ops(len(log))
	for i := len(log); i < nClips; i++ {
		c.op(false, "camera clip not published (%d emitted, %d published, %d dropped)", nClips, len(log), st.ClipsDropped)
	}
	c.op(sess.Live().Clips() == len(log), "live store holds %d clips, %d were published", sess.Live().Clips(), len(log))

	var openLat, late, kb []float64
	within := 0
	closed := 0
	byKind := map[string][]float64{} // request times, send to answer read
	for _, cl := range clients {
		for _, r := range cl.recs {
			kind := r.route + "_" + r.dataset
			kb = append(kb, float64(r.bytes)/1024)
			byKind[kind] = append(byKind[kind], r.serviceMS)
			if !r.open {
				closed++
				continue
			}
			openLat = append(openLat, r.latencyMS)
			late = append(late, r.lateMS)
			if r.ok && r.latencyMS <= withinLimitMS {
				within++
			}
		}
	}
	if len(openLat) == 0 || len(freshMS) == 0 {
		return errors.New("serve-live completed no request or no clip")
	}

	if !c.traced {
		if len(sweeps) == 0 { // a run shorter than the sampler's period
			sweeps = append(sweeps, streamMS())
		}
		f := c.factorOf(median(sweeps))
		var lat, fresh timing
		lat.add(f, openLat...)
		fresh.add(f, freshMS...)
		c.setTiming("op", &lat)
		c.setTiming("op2", &fresh)
		// Requests answered per second of the open loop, from its start to
		// the last answer: the 100 req/s offered, less whatever a
		// connection that fell behind its schedule could not send.
		c.set("throughput", float64(len(openLat))/openEnd.Sub(start).Seconds())
		c.set("quality", float64(within)/float64(len(openLat)))
		return nil
	}

	c.set("serve.closed_rps", float64(closed)/closedFor.Seconds())
	for kind, v := range byKind {
		c.set("serve."+kind+"_p50_ms", median(v))
	}
	c.set("serve.sched_late_p95_ms", percentile(sorted(late), 95))
	c.set("serve.resp_kb_p50", median(kb))
	c.set("ingest.queue_wait_p50_ms", median(queueMS))
	c.set("ingest.service_p50_ms", median(serviceMS))
	c.set("ingest.clips_published", float64(st.ClipsIngested))
	c.set("ingest.clips_dropped", float64(st.ClipsDropped))
	c.set("ingest.emit_late_p95_ms", percentile(sorted(emitLate), 95))

	// HTTP overhead: a warm archive count over the wire against the same
	// call made directly, with ingest finished.
	cl := clients[0]
	var wire, direct []float64
	req, err := http.NewRequest("GET", rig.base+"/v1/query/count?category=car&dataset="+archiveName, nil)
	if err != nil {
		return err
	}
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		resp, err := cl.hc.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		wire = append(wire, us(time.Since(t0)))
		t0 = time.Now()
		rig.sh.CountTracks("car")
		direct = append(direct, us(time.Since(t0)))
	}
	cl.hc.CloseIdleConnections()
	c.set("serve.overhead_p50_us", median(wire)-median(direct))
	return nil
}
