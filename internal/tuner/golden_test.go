package tuner

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/dataset"
)

// curveDigest is an FNV-64a over every point of a curve, in curve order:
// each configuration field, then the bits of its runtime and accuracy.
func curveDigest(curve []Point) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(v float64) { putU(math.Float64bits(v)) }
	putB := func(v bool) {
		if v {
			putU(1)
		} else {
			putU(0)
		}
	}
	for _, p := range curve {
		c := p.Cfg
		h.Write([]byte(c.Arch))
		putF(c.DetScale)
		putF(c.DetConf)
		putB(c.UseProxy)
		putU(uint64(c.ProxyIdx))
		putF(c.ProxyThresh)
		putU(uint64(c.Gap))
		h.Write([]byte(c.Tracker))
		putB(c.VariableGap)
		putB(c.Refine)
		putF(p.Runtime)
		putF(p.Accuracy)
	}
	return h.Sum64()
}

// TestGoldenTune pins the tuner across commits: the curves of the full
// system and of the "+ Sampling Rate" module mask (SORT, no proxy), and
// the tuning cost Figure 6 prints, as the bits of Acct.Get(OpTune) after
// SelectBest and after each Tune. The constants were recorded on commit
// 2e6c690, before the tuner's evaluations went through one step. The
// system is trained afresh at the shared fixture's spec, because other
// tests charge the fixture's accountant. The constants hold on amd64
// only; targets that fuse multiply-adds round differently.
func TestGoldenTune(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden constants were recorded on amd64")
	}
	ds, err := dataset.Build("caldot1", dataset.SetSpec{Clips: 3, ClipSeconds: 5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(ds)
	metric := core.MetricFor(ds)
	best, _ := SelectBest(sys, metric)
	if got, want := math.Float64bits(sys.Acct.Get(costmodel.OpTune)), uint64(0x4037b816292f3ccd); got != want {
		t.Errorf("tune cost after SelectBest: %#x, want %#x", got, want)
	}
	sys.FinishTraining(best, 42)

	sampling := DefaultOptions()
	sampling.UseProxy = false
	sampling.Tracker = core.TrackerSORT
	cases := []struct {
		name   string
		opts   Options
		points int
		hash   uint64
		tune   uint64 // Acct.Get(OpTune) bits after this Tune
	}{
		{"default", DefaultOptions(), 7, 0xcf49ea1a250b6b1f, 0x40473a01c7846bfb},
		{"+ sampling rate", sampling, 8, 0x22cbdf3cbbaf3a2f, 0x4050f530c715a93d},
	}
	for _, c := range cases {
		curve := Tune(sys, metric, c.opts)
		if len(curve) != c.points || curveDigest(curve) != c.hash {
			t.Errorf("%s: %d points hash %#x, want %d points hash %#x",
				c.name, len(curve), curveDigest(curve), c.points, c.hash)
		}
		if got := math.Float64bits(sys.Acct.Get(costmodel.OpTune)); got != c.tune {
			t.Errorf("%s: tune cost %#x (%v s), want %#x", c.name, got, sys.Acct.Get(costmodel.OpTune), c.tune)
		}
	}
}
