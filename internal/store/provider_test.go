package store

import (
	"errors"
	"reflect"
	"testing"
)

// TestRegistry pins the dataset registry contract: the first registration
// becomes the default, the empty name resolves to the default, unknown
// names fail with ErrUnknownDataset, and Names is sorted.
func TestRegistry(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(9)
	one, err := NewSharded("zebra", ctx, SplitSegments(perClip, ctx, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()

	if _, err := reg.Resolve(""); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("empty registry Resolve err = %v, want ErrUnknownDataset", err)
	}

	reg.Register("zebra", one)
	sh, err := NewSharded("alpha", ctx, SplitSegments(perClip, ctx, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg.Register("alpha", sh)

	if reg.Default() != "zebra" {
		t.Errorf("default = %q, want zebra (first registered)", reg.Default())
	}
	if got := reg.Names(); !reflect.DeepEqual(got, []string{"alpha", "zebra"}) {
		t.Errorf("Names = %v, want sorted [alpha zebra]", got)
	}

	def, err := reg.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if def.(*Sharded) != one {
		t.Error("empty name did not resolve to the default dataset")
	}
	named, err := reg.Resolve("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if named.(*Sharded) != sh {
		t.Error("named resolve returned the wrong dataset")
	}
	if _, err := reg.Resolve("nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("unknown name err = %v, want ErrUnknownDataset", err)
	}
}

// TestProviderFunc pins that a ProviderFunc snapshot is taken per call, so
// a not-yet-loaded dataset can become ready without re-registration.
func TestProviderFunc(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(10)
	one, err := NewSharded("live", ctx, SplitSegments(perClip, ctx, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ready bool
	reg := NewRegistry()
	reg.Register("live", ProviderFunc(func() Querier {
		if !ready {
			return nil
		}
		return one
	}))
	if s, err := reg.Resolve(""); err != nil || s != nil {
		t.Fatalf("unready provider resolved to %v, %v; want nil, nil", s, err)
	}
	ready = true
	if s, err := reg.Resolve(""); err != nil || s.(*Sharded) != one {
		t.Fatalf("ready provider resolved to %v, %v", s, err)
	}
}

// TestLiveIsProvider pins that a Live store registers directly: its
// snapshots flow through the registry as they grow.
func TestLiveIsProvider(t *testing.T) {
	perClip, _, ctx, _ := shardedFixture(11)
	l := NewLive(ctx)
	reg := NewRegistry()
	reg.Register("cam0", l)
	for i, tracks := range perClip {
		l.Append(tracks)
		s, err := reg.Resolve("cam0")
		if err != nil {
			t.Fatal(err)
		}
		if s.Clips() != i+1 {
			t.Fatalf("after %d appends registry serves %d clips", i+1, s.Clips())
		}
	}
}
