package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"otif"
	"otif/internal/serve"
	"otif/internal/store"
)

// TestQueriesDuringStreamingIngest hammers /v1/query/count and /v1/streams from
// several goroutines while a streaming ingest session appends clips to
// the live store. The live store is append-only, so every valid response
// must be an exact prefix of the final per-clip counts: a torn index read
// (a response mixing pre- and post-append state) would break the prefix
// property. Run under -race this also proves snapshot publication shares
// no unsynchronized state with the query path.
func TestQueriesDuringStreamingIngest(t *testing.T) {
	p, _ := testPipeline(t)
	const limit = 4
	sess, err := p.Ingest(context.Background(),
		otif.IngestOptions{Cameras: 2, ClipsPerCamera: limit, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	datasets := store.NewRegistry()
	datasets.Register("caldot1", store.ProviderFunc(func() store.Querier {
		if s := sess.Store(); s.Clips() > 0 {
			return s
		}
		return nil
	}))
	srv := httptest.NewServer((&serve.Server{
		Queries: &serve.QueryAPI{Datasets: datasets},
		Streams: func() (otif.IngestStats, bool) { return sess.Stats(), true },
	}).Handler())
	defer srv.Close()

	type countResp struct {
		PerClip []int `json:"per_clip"`
		Total   int   `json:"total"`
	}
	var mu sync.Mutex
	var responses []countResp

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/v1/query/count?category=car")
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode == http.StatusOK {
					var c countResp
					if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
						t.Error(err)
					} else {
						mu.Lock()
						responses = append(responses, c)
						mu.Unlock()
					}
				}
				resp.Body.Close()

				resp, err = http.Get(srv.URL + "/v1/streams")
				if err != nil {
					t.Error(err)
					return
				}
				var sr struct {
					Streaming bool             `json:"streaming"`
					Stats     otif.IngestStats `json:"stats"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
					t.Error(err)
				} else if !sr.Streaming || len(sr.Stats.Cameras) != 2 {
					t.Errorf("bad /v1/streams response: %+v", sr)
				}
				resp.Body.Close()
			}
		}()
	}

	if err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let in-flight queries observe the final store
	close(stop)
	wg.Wait()

	final := sess.Store().CountTracks("car")
	if len(final) != 2*limit {
		t.Fatalf("final store has %d clips, want %d", len(final), 2*limit)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(responses) == 0 {
		t.Fatal("no successful /v1/query/count responses recorded")
	}
	sawFinal := false
	for _, r := range responses {
		if len(r.PerClip) > len(final) {
			t.Fatalf("response has %d clips, store never exceeded %d", len(r.PerClip), len(final))
		}
		total := 0
		for i, c := range r.PerClip {
			if c != final[i] {
				t.Fatalf("torn read: response %v is not a prefix of final counts %v", r.PerClip, final)
			}
			total += c
		}
		if total != r.Total {
			t.Fatalf("response total %d does not match its per-clip counts %v", r.Total, r.PerClip)
		}
		if len(r.PerClip) == len(final) {
			sawFinal = true
		}
	}
	if !sawFinal {
		t.Error("no query observed the fully published store")
	}
}
