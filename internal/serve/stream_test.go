package serve

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"otif"
)

// TestQueriesDuringStreamingIngest hammers /v1/query/count and /v1/streams from
// several goroutines while the daemon's stream job appends clips to the
// live store. The live store is append-only, so every valid response
// must be an exact prefix of the final per-clip counts: a torn index read
// (a response mixing pre- and post-append state) would break the prefix
// property. Run under -race this also proves snapshot publication shares
// no unsynchronized state with the query path. The streamed tracks stay
// served after the job ends.
func TestQueriesDuringStreamingIngest(t *testing.T) {
	d := readyTestDaemon(t, testConfig())
	const limit = 4
	job := d.submit("stream", map[string]string{"cameras": "2", "clips": "4", "queue": "1", "interval": "5ms"})

	var mu sync.Mutex
	var responses []countResponse

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One more round after stop, so every goroutine also reads the
			// finished store.
			for last := false; !last; {
				select {
				case <-stop:
					last = true
				default:
				}
				if code, body := d.get("/v1/query/count?category=car"); code == http.StatusOK {
					var c countResponse
					if err := json.Unmarshal(body, &c); err != nil {
						t.Error(err)
					} else {
						mu.Lock()
						responses = append(responses, c)
						mu.Unlock()
					}
				}

				// A request that lands after the job ended reads "streaming": false.
				var sr struct {
					Streaming bool             `json:"streaming"`
					Stats     otif.IngestStats `json:"stats"`
				}
				_, body := d.get("/v1/streams")
				if err := json.Unmarshal(body, &sr); err != nil {
					t.Error(err)
				} else if sr.Streaming && len(sr.Stats.Cameras) != 2 {
					t.Errorf("bad /v1/streams response: %+v", sr)
				}
			}
		}()
	}

	waitState(t, job, JobDone)
	close(stop)
	wg.Wait()

	var after countResponse
	if err := json.Unmarshal(d.ok("/v1/query/count?category=car"), &after); err != nil {
		t.Fatal(err)
	}
	final := after.PerClip
	if len(final) != 2*limit {
		t.Fatalf("final store has %d clips, want %d", len(final), 2*limit)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(responses) == 0 {
		t.Fatal("no successful /v1/query/count responses recorded")
	}
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
	}
}
