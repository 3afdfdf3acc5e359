package dataset

import (
	"testing"
)

func TestNamesAllBuild(t *testing.T) {
	spec := SetSpec{Clips: 1, ClipSeconds: 2}
	for _, name := range Names() {
		in, err := Build(name, spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(in.Train) != 1 || len(in.Val) != 1 || len(in.Test) != 1 {
			t.Errorf("%s: wrong set sizes", name)
		}
		if in.Cfg.NomW <= 0 || in.Cfg.FPS <= 0 {
			t.Errorf("%s: bad config", name)
		}
		if len(in.Cfg.Lanes) == 0 {
			t.Errorf("%s: no lanes", name)
		}
		if in.Cfg.BGSeed == 0 {
			t.Errorf("%s: background seed not set", name)
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("nope", DefaultSpec, 1); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestSetsAreDisjoint(t *testing.T) {
	in, err := Build("caldot1", SetSpec{Clips: 2, ClipSeconds: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Different sets must contain different traffic (different worlds).
	a := in.Train[0].World
	b := in.Val[0].World
	if len(a.Objects) == len(b.Objects) && len(a.Objects) > 0 {
		same := true
		for i := range a.Objects {
			if a.Objects[i].SpawnSec != b.Objects[i].SpawnSec {
				same = false
				break
			}
		}
		if same {
			t.Error("train and val clips contain identical traffic")
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	spec := SetSpec{Clips: 1, ClipSeconds: 2}
	a, _ := Build("tokyo", spec, 9)
	b, _ := Build("tokyo", spec, 9)
	fa := a.Test[0].Clip.Frame(3)
	fb := b.Test[0].Clip.Frame(3)
	for i := range fa.Pix {
		if fa.Pix[i] != fb.Pix[i] {
			t.Fatal("same seed produced different video")
		}
	}
}

func TestEquivScale(t *testing.T) {
	if got := PaperSpec.EquivScale(); got != 1 {
		t.Errorf("paper spec scale = %v, want 1", got)
	}
	s := SetSpec{Clips: 6, ClipSeconds: 10}
	if got := s.EquivScale(); got != 60 {
		t.Errorf("scale = %v, want 60", got)
	}
}

func TestTokyoHasTenMovements(t *testing.T) {
	in, err := Build("tokyo", SetSpec{Clips: 1, ClipSeconds: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, l := range in.Cfg.Lanes {
		names[l.Name] = true
	}
	if len(names) != 10 {
		t.Errorf("tokyo has %d movements, want 10 (per the paper)", len(names))
	}
}

func TestUAVNotFixedCamera(t *testing.T) {
	uav, _ := Build("uav", SetSpec{Clips: 1, ClipSeconds: 1}, 1)
	if uav.FixedCamera {
		t.Error("UAV must not be a fixed camera (refinement does not apply)")
	}
	cal, _ := Build("caldot1", SetSpec{Clips: 1, ClipSeconds: 1}, 1)
	if !cal.FixedCamera {
		t.Error("caldot1 must be a fixed camera")
	}
}

func TestClipTruthAccess(t *testing.T) {
	in, err := Build("jackson", SetSpec{Clips: 1, ClipSeconds: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ct := in.Test[0]
	total := 0
	for f := 0; f < ct.Clip.Len(); f++ {
		total += len(ct.Truth(f))
	}
	if total == 0 {
		t.Error("no ground truth objects in a 4-second jackson clip")
	}
}
