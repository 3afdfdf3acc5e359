package serve

import (
	"context"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otif"
	"otif/internal/obs"
	"otif/internal/parallel"
)

// The tests in this file run the daemon's extract job against a real
// (tiny) pipeline. They assert the acceptance contract of the serving
// layer: concurrent scrapes race-free against a running extraction job,
// bit-identical extraction results with scraping and logging enabled,
// and cooperative cancellation landing at a clip boundary.

// TestScrapeRacesWithExtractionJob scrapes /metrics (and reads job
// views) continuously while an extraction job runs — under -race this
// proves the exposition path shares no unsynchronized state with the
// pipeline.
func TestScrapeRacesWithExtractionJob(t *testing.T) {
	d := readyTestDaemon(t, testConfig())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/jobs", "/healthz"} {
					if code, _ := d.get(path); code != http.StatusOK {
						t.Errorf("GET %s = %d", path, code)
						return
					}
				}
			}
		}()
	}

	d.run("extract", nil, JobDone)
	close(stop)
	wg.Wait()
}

// TestExtractionBitIdenticalWithServingEnabled runs the same extraction
// with the daemon surface fully active (structured logging installed,
// /metrics scraped concurrently) and fully inactive, and requires
// bit-identical runtimes and track counts.
func TestExtractionBitIdenticalWithServingEnabled(t *testing.T) {
	d := readyTestDaemon(t, testConfig())
	pick, err := otif.PickFastestWithin(d.pipe.Load().Curve(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	p, cfg := d.pipe.Load(), pick.Cfg

	baseline, err := p.Extract(context.Background(), cfg, otif.Test)
	if err != nil {
		t.Fatal(err)
	}

	otif.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	defer otif.SetLogger(nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d.get("/metrics")
		}
	}()
	served, err := p.Extract(context.Background(), cfg, otif.Test)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if math.Float64bits(baseline.Runtime) != math.Float64bits(served.Runtime) {
		t.Errorf("runtime changed under serving: %v vs %v", baseline.Runtime, served.Runtime)
	}
	if baseline.Clips() != served.Clips() {
		t.Fatalf("clip count changed: %d vs %d", baseline.Clips(), served.Clips())
	}
	for i := 0; i < baseline.Clips(); i++ {
		if len(baseline.Tracks(i)) != len(served.Tracks(i)) {
			t.Errorf("clip %d track count changed: %d vs %d",
				i, len(baseline.Tracks(i)), len(served.Tracks(i)))
		}
	}
}

// TestCancelLandsAtClipBoundary gates the extraction after its first
// clip event, posts the cancel over HTTP, then releases the worker: the
// job must end canceled with a partial record showing at least one but
// not all clips done.
func TestCancelLandsAtClipBoundary(t *testing.T) {
	d := readyTestDaemon(t, testConfig())
	prev := parallel.Workers()
	parallel.SetWorkers(1) // serial clips: the gate blocks the only worker
	defer parallel.SetWorkers(prev)

	firstClip := make(chan struct{})
	proceed := make(chan struct{})
	var once sync.Once
	// The real runner, its progress hook decorated to hold the worker.
	d.jobs.Register("extract", func(ctx context.Context, job *Job) (any, error) {
		progress := obs.ProgressFrom(ctx)
		return d.runExtract(obs.WithProgress(ctx, func(e obs.Event) {
			progress(e)
			if e.Kind == obs.EventClip {
				once.Do(func() {
					close(firstClip)
					<-proceed
				})
			}
		}), job)
	})

	j := d.submit("extract", nil)
	select {
	case <-firstClip:
	case <-time.After(60 * time.Second):
		t.Fatal("no clip event")
	}
	if code, _ := d.do("POST", "/jobs/"+j.ID()+"/cancel", ""); code != http.StatusOK {
		t.Errorf("cancel = %d", code)
	}
	close(proceed)

	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish after cancel")
	}
	v := j.View()
	if v.State != JobCanceled {
		t.Fatalf("state = %q, want canceled (%+v)", v.State, v)
	}
	if v.Partial == nil {
		t.Fatal("canceled job has no partial record")
	}
	if v.Partial.Stage != "extract" || v.Partial.Done < 1 || v.Partial.Done >= v.Partial.Total {
		t.Errorf("partial = %+v, want extract with 1 <= done < total", v.Partial)
	}
}

// TestExtractJobsRunSideBySide holds each of two extract jobs at its first
// clip event until the other job has reached its own: the jobs must be
// running at once, and each must still hear exactly its own clips.
func TestExtractJobsRunSideBySide(t *testing.T) {
	d := readyTestDaemon(t, testConfig())
	prev := parallel.Workers()
	parallel.SetWorkers(1) // one worker a job: the gate holds each job's only clip in flight
	defer parallel.SetWorkers(prev)

	var arrived sync.WaitGroup
	arrived.Add(2)
	both := make(chan struct{})
	go func() { arrived.Wait(); close(both) }()
	var met atomic.Int32
	d.jobs.Register("extract", func(ctx context.Context, job *Job) (any, error) {
		var once sync.Once
		progress := obs.ProgressFrom(ctx)
		return d.runExtract(obs.WithProgress(ctx, func(e obs.Event) {
			progress(e)
			if e.Kind == obs.EventClip {
				once.Do(func() {
					arrived.Done()
					select {
					case <-both:
						met.Add(1)
					case <-time.After(5 * time.Second):
					}
				})
			}
		}), job)
	})

	a, b := d.submit("extract", nil), d.submit("extract", map[string]string{"set": "val"})
	waitState(t, a, JobDone)
	waitState(t, b, JobDone)
	if met.Load() != 2 {
		t.Errorf("%d of 2 extract jobs met the other one mid-run, want both: extract jobs wait for each other", met.Load())
	}
	// Running, one clip event per clip, done.
	for _, j := range []*Job{a, b} {
		if v := j.View(); v.Events != 4 {
			t.Errorf("extract job %s has %d events, want 4: its own 2 clips only", v.ID, v.Events)
		}
	}
}
