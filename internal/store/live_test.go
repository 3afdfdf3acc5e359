package store

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"otif/internal/query"
)

// flatClips gathers a Sharded's per-clip indexes in dataset clip order, so
// tests can compare the segmented layout element-for-element against a
// single-segment store.New build.
func flatClips(sh *Sharded) []clipIndex {
	out := make([]clipIndex, 0, sh.Clips())
	for _, sg := range sh.segs {
		out = append(out, sg.clips...)
	}
	return out
}

// TestLiveIncrementalMatchesFullRebuild is the incremental-publication
// acceptance test: appending clips one at a time to a Live store must
// yield indexes bit-identical to store.New over the same clip sequence —
// at every prefix, not just the final state. clipIndex holds only plain
// values and slices, so reflect.DeepEqual compares every index array
// element-for-element; the segment split changes only where clip indexes
// live, not their contents.
func TestLiveIncrementalMatchesFullRebuild(t *testing.T) {
	ctx := testCtx()
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		perClip := [][]*query.Track{
			genTracks(r, 5+r.Intn(40), ctx.Frames, ctx),
			nil, // empty clip mid-stream
			genTracks(r, r.Intn(12), ctx.Frames, ctx),
			genTracks(r, 30, ctx.Frames, ctx),
		}
		// sealEvery 2 exercises both a seal boundary and an open tail
		// within four appends.
		l := NewLiveOptions("live", ctx, 2, NewCache())
		for k, tracks := range perClip {
			if got := l.Append(tracks); got != k {
				t.Fatalf("seed %d: Append returned clip index %d, want %d", seed, got, k)
			}
			full := New(perClip[:k+1], ctx)
			snap := l.Snapshot().(*Sharded)
			if !reflect.DeepEqual(flatClips(snap), full.clips) {
				t.Fatalf("seed %d: after %d appends, incremental indexes diverge from full rebuild", seed, k+1)
			}
			if snap.Context() != full.Context() {
				t.Fatalf("seed %d: context diverged: %+v vs %+v", seed, snap.Context(), full.Context())
			}
			if !reflect.DeepEqual(snap.CountTracks("car"), full.CountTracks("car")) {
				t.Fatalf("seed %d: scatter-gather counts diverge from full rebuild", seed)
			}
		}
	}
}

// TestLiveSealsSegments pins the sealing contract: the open segment seals
// at the threshold with a stable id, sealed segments are immutable and
// shared across snapshots, and the manifest tiles the clip range.
func TestLiveSealsSegments(t *testing.T) {
	ctx := testCtx()
	r := rand.New(rand.NewSource(3))
	l := NewLiveOptions("cam0", ctx, 2, NewCache())
	for i := 0; i < 5; i++ {
		l.Append(genTracks(r, 8, ctx.Frames, ctx))
	}
	sh := l.Snapshot().(*Sharded)
	segs := sh.Segments()
	if len(segs) != 3 {
		t.Fatalf("after 5 appends at sealEvery=2: %d segments, want 3 (2 sealed + open)", len(segs))
	}
	for i, wantSealed := range []bool{true, true, false} {
		if segs[i].sealed != wantSealed {
			t.Errorf("segment %d sealed = %v, want %v", i, segs[i].sealed, wantSealed)
		}
		if want := SegmentID(i); segs[i].id != want {
			t.Errorf("segment %d id = %q, want %q", i, segs[i].id, want)
		}
	}
	m := sh.Manifest()
	if m.Dataset != "cam0" || m.Clips != 5 {
		t.Fatalf("manifest = %+v, want dataset cam0 with 5 clips", m)
	}
	requireTiling(t, m)
	// Sealed segments are shared by identity across snapshots.
	l.Append(genTracks(r, 4, ctx.Frames, ctx))
	for i := 0; i < 2; i++ {
		if l.Snapshot().(*Sharded).Segments()[i] != segs[i] {
			t.Errorf("sealed segment %d was rebuilt on append; want shared", i)
		}
	}
}

// TestLiveSnapshotImmutable pins the atomic-publication contract: a
// snapshot taken before an append is untouched by it, and query results
// computed from the old snapshot stay valid.
func TestLiveSnapshotImmutable(t *testing.T) {
	ctx := testCtx()
	r := rand.New(rand.NewSource(11))
	first := genTracks(r, 25, ctx.Frames, ctx)
	second := genTracks(r, 15, ctx.Frames, ctx)

	l := NewLive(ctx)
	l.Append(first)
	old := l.Snapshot()
	wantCounts := old.CountTracks("car")
	wantLimit := old.LimitQuery("car", query.CountPredicate{N: 1}, 5, 3)

	l.Append(second)

	if got := old.Clips(); got != 1 {
		t.Fatalf("old snapshot grew to %d clips after append", got)
	}
	if got := old.CountTracks("car"); !reflect.DeepEqual(got, wantCounts) {
		t.Fatalf("old snapshot counts changed: %v vs %v", got, wantCounts)
	}
	if got := old.LimitQuery("car", query.CountPredicate{N: 1}, 5, 3); !reflect.DeepEqual(got, wantLimit) {
		t.Fatalf("old snapshot limit query changed")
	}
	if got := l.Snapshot().Clips(); got != 2 {
		t.Fatalf("new snapshot has %d clips, want 2", got)
	}
}

// TestLiveConcurrentReaders appends clips while reader goroutines query
// every snapshot they can grab; under -race this asserts publication is
// safe, and each reader checks its snapshot is internally consistent (the
// per-clip counts match a full rebuild over that snapshot's tracks). The
// 12 appends cross the default seal threshold, so readers race against
// sealing as well as appending.
func TestLiveConcurrentReaders(t *testing.T) {
	ctx := testCtx()
	r := rand.New(rand.NewSource(7))
	const nClips = 12
	clips := make([][]*query.Track, nClips)
	for i := range clips {
		clips[i] = genTracks(r, 10+r.Intn(20), ctx.Frames, ctx)
	}
	// wantByLen[k] is the expected per-clip car counts of the k-clip
	// snapshot: a reader seeing k clips must see exactly these values.
	wantByLen := make([][]int, nClips+1)
	wantByLen[0] = []int{}
	for k := 1; k <= nClips; k++ {
		wantByLen[k] = New(clips[:k], ctx).CountTracks("car")
	}

	l := NewLive(ctx)
	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				snap := l.Snapshot()
				got := snap.CountTracks("car")
				want := wantByLen[snap.Clips()]
				if len(got) != len(want) {
					t.Errorf("snapshot with %d clips returned %d counts", snap.Clips(), len(got))
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("torn snapshot: clip %d count %d, want %d", i, got[i], want[i])
						return
					}
				}
				snap.LimitQuery("car", query.CountPredicate{N: 1}, 3, 5)
			}
		}()
	}
	for _, tracks := range clips {
		l.Append(tracks)
	}
	close(stop)
	wg.Wait()

	if !reflect.DeepEqual(l.Snapshot().CountTracks("car"), wantByLen[nClips]) {
		t.Fatal("final snapshot diverges from full rebuild")
	}
}
