package serve_test

import (
	"context"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otif"
	"otif/internal/obs"
	"otif/internal/serve"
)

// The tests in this file drive the exposition layer against a real
// (tiny) pipeline: a trained and tuned caldot1 instance with 2 clips of
// 2 seconds per set. They assert the acceptance contract of the serving
// layer: concurrent scrapes race-free against a running extraction job,
// bit-identical extraction results with scraping and logging enabled,
// and cooperative cancellation landing at a clip boundary.

var (
	pipeOnce sync.Once
	pipe     *otif.Pipeline
	pipeCfg  otif.Config
	pipeErr  error
	// relay forwards pipeline progress events to the active job.
	relay atomic.Pointer[obs.Progress]
)

func testPipeline(t *testing.T) (*otif.Pipeline, otif.Config) {
	t.Helper()
	pipeOnce.Do(func() {
		pipe, pipeErr = otif.Open("caldot1", otif.Options{
			ClipsPerSet: 2, ClipSeconds: 2,
			Progress: func(e obs.Event) {
				if p := relay.Load(); p != nil {
					(*p)(e)
				}
			},
		})
		if pipeErr != nil {
			return
		}
		pipe.Train()
		curve, err := pipe.Tune(context.Background())
		if err != nil {
			pipeErr = err
			return
		}
		pick, err := otif.PickFastestWithin(curve, 0.05)
		if err != nil {
			pipeErr = err
			return
		}
		pipeCfg = pick.Cfg
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe, pipeCfg
}

// extractRunner builds a job runner executing one test-set extraction,
// with pipeline progress routed into the job while it runs. wrap, when
// non-nil, decorates the job's progress hook (used to gate cancellation
// deterministically).
func extractRunner(p *otif.Pipeline, cfg otif.Config, wrap func(obs.Progress) obs.Progress) serve.Runner {
	return func(ctx context.Context, job *serve.Job, progress obs.Progress) (any, error) {
		if wrap != nil {
			progress = wrap(progress)
		}
		relay.Store(&progress)
		defer relay.Store(nil)
		ts, err := p.Extract(ctx, cfg, otif.Test)
		if err != nil {
			return nil, err
		}
		return map[string]any{"clips": len(ts.PerClip), "runtime": ts.Runtime}, nil
	}
}

// TestScrapeRacesWithExtractionJob scrapes /metrics (and reads job
// views) continuously while an extraction job runs — under -race this
// proves the exposition path shares no unsynchronized state with the
// pipeline.
func TestScrapeRacesWithExtractionJob(t *testing.T) {
	p, cfg := testPipeline(t)
	m := serve.NewManager(0)
	defer m.Close()
	m.Register("extract", extractRunner(p, cfg, nil))
	srv := httptest.NewServer((&serve.Server{Manager: m}).Handler())
	defer srv.Close()

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
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	j, err := m.Submit("extract", nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("extraction job did not finish")
	}
	close(stop)
	wg.Wait()
	if got := j.State(); got != serve.JobDone {
		t.Fatalf("job state = %q, want done (view %+v)", got, j.View())
	}
}

// TestExtractionBitIdenticalWithServingEnabled runs the same extraction
// with the daemon surface fully active (structured logging installed,
// /metrics scraped concurrently) and fully inactive, and requires
// bit-identical runtimes and track counts.
func TestExtractionBitIdenticalWithServingEnabled(t *testing.T) {
	p, cfg := testPipeline(t)

	baseline, err := p.Extract(context.Background(), cfg, otif.Test)
	if err != nil {
		t.Fatal(err)
	}

	otif.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	defer otif.SetLogger(nil)
	srv := httptest.NewServer((&serve.Server{}).Handler())
	defer srv.Close()
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
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
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
	if len(baseline.PerClip) != len(served.PerClip) {
		t.Fatalf("clip count changed: %d vs %d", len(baseline.PerClip), len(served.PerClip))
	}
	for i := range baseline.PerClip {
		if len(baseline.PerClip[i]) != len(served.PerClip[i]) {
			t.Errorf("clip %d track count changed: %d vs %d",
				i, len(baseline.PerClip[i]), len(served.PerClip[i]))
		}
	}
}

// TestCancelLandsAtClipBoundary gates the extraction after its first
// clip event, posts the cancel over HTTP, then releases the worker: the
// job must end canceled with a partial record showing at least one but
// not all clips done.
func TestCancelLandsAtClipBoundary(t *testing.T) {
	p, cfg := testPipeline(t)
	prev := otif.Parallelism()
	otif.SetParallelism(1) // serial clips: the gate blocks the only worker
	defer otif.SetParallelism(prev)

	firstClip := make(chan struct{})
	proceed := make(chan struct{})
	var once sync.Once
	wrap := func(next obs.Progress) obs.Progress {
		return func(e obs.Event) {
			next(e)
			if e.Kind == obs.EventClip {
				once.Do(func() {
					close(firstClip)
					<-proceed
				})
			}
		}
	}

	m := serve.NewManager(0)
	defer m.Close()
	m.Register("extract", extractRunner(p, cfg, wrap))
	srv := httptest.NewServer((&serve.Server{Manager: m}).Handler())
	defer srv.Close()

	j, err := m.Submit("extract", nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-firstClip:
	case <-time.After(60 * time.Second):
		t.Fatal("no clip event")
	}
	resp, err := http.Post(srv.URL+"/jobs/"+j.ID()+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(proceed)

	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish after cancel")
	}
	v := j.View()
	if v.State != serve.JobCanceled {
		t.Fatalf("state = %q, want canceled (%+v)", v.State, v)
	}
	if v.Partial == nil {
		t.Fatal("canceled job has no partial record")
	}
	if v.Partial.Stage != "extract" || v.Partial.Done < 1 || v.Partial.Done >= v.Partial.Total {
		t.Errorf("partial = %+v, want extract with 1 <= done < total", v.Partial)
	}
}
