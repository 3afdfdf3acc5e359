package proxy

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"otif/internal/costmodel"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/video"
)

// TestScoreAfterRetrainIsFresh: Train changes the weights a frame was
// scored under, so the next Score of that frame must be computed again,
// not served from the frame cache.
func TestScoreAfterRetrainIsFresh(t *testing.T) {
	m, frame, bg := scoreFixture()
	acct := costmodel.NewAccountant()
	before := m.Score(frame, bg, acct)

	rng := rand.New(rand.NewSource(5))
	ex := []TrainExample{{Frame: frame, Boxes: []geom.Rect{{X: 64, Y: 96, W: 80, H: 60}}}}
	m.Train(ex, bg, 20, rng, acct)
	after := m.Score(frame, bg, acct)
	if reflect.DeepEqual(after, before) {
		t.Fatal("training left every score unchanged; the test cannot tell a stale hit")
	}
	requireSameBits(t, "after Train", after, m.score(frame, bg))
}

// TestScoreEntryPerModelAndBackground: two models and two backgrounds on
// one frame are four score entries, each answering its own computation,
// and scoring them again only hits.
func TestScoreEntryPerModelAndBackground(t *testing.T) {
	defer video.SetCacheBudget(video.DefaultCacheBytes)
	video.SetCacheBudget(video.DefaultCacheBytes)

	rng := rand.New(rand.NewSource(13))
	frame := randomPlane(rng, 240, 160, 720, 480, 120, 40)
	models := []*Model{NewModel(360, 240, rng), NewModel(360, 240, rng)}
	bgs := []*detect.BackgroundModel{
		detect.NewBackgroundModel(randomPlane(rng, 240, 160, 720, 480, 110, 10)),
		detect.NewBackgroundModel(randomPlane(rng, 240, 160, 720, 480, 140, 10)),
	}
	acct := costmodel.NewAccountant()
	for round := 0; round < 2; round++ {
		for _, m := range models {
			for _, bg := range bgs {
				requireSameBits(t, "cached", m.Score(frame, bg, acct), m.score(frame, bg))
			}
		}
	}
	// Both models analyse the frame at one resolution: one downsample
	// entry beside the four score vectors. The downsample misses once, each
	// score once, and everything else hits.
	s := video.GlobalCacheStats()
	if s.Entries != 5 || s.Misses != 5 {
		t.Errorf("stats %+v: want 5 entries (one downsample, four score vectors) and 5 misses", s)
	}
}

// TestScoreConcurrent scores frames from several goroutines through two
// models and the shared frame cache, as parallel clip workers and tuner
// candidates do: every score must be the serial one. Run with -race.
func TestScoreConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	models := []*Model{NewModel(360, 240, rng), NewModel(180, 120, rng)}
	bg := detect.NewBackgroundModel(randomPlane(rng, 240, 160, 720, 480, 110, 10))
	frames := make([]*video.Frame, 6)
	for i := range frames {
		frames[i] = randomPlane(rng, 240, 160, 720, 480, 60+20*i, 40)
	}
	want := make([][][]float64, len(models))
	for mi, m := range models {
		for _, f := range frames {
			want[mi] = append(want[mi], m.score(f, bg))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			acct := costmodel.NewAccountant()
			for i := 0; i < 60; i++ {
				mi, fi := (g+i)%len(models), (g*5+i)%len(frames)
				if got := models[mi].Score(frames[fi], bg, acct); !reflect.DeepEqual(got, want[mi][fi]) {
					t.Errorf("goroutine %d pass %d: model %d frame %d differs from the serial score", g, i, mi, fi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
