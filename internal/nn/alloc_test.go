package nn

import (
	"math/rand"
	"testing"
)

// The zero-allocation kernels are the per-frame hot path; these tests pin
// both halves of their contract: steady-state calls allocate nothing, and
// their outputs are bit-identical to the allocating reference kernels.

func TestDenseApplyIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDense(32, 16, ReLUAct, rng)
	x := randVec(rng, 32)
	dst := NewVec(16)
	if n := testing.AllocsPerRun(100, func() { d.ApplyInto(dst, x) }); n != 0 {
		t.Errorf("Dense.ApplyInto allocates %v per op, want 0", n)
	}
}

func TestGRUStepInferIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := NewGRUCell(7, 16, rng)
	x := randVec(rng, 7)
	h := NewVec(16)
	var s Scratch
	g.StepInferInto(h, h, x, &s) // warm the scratch buffers
	if n := testing.AllocsPerRun(100, func() { g.StepInferInto(h, h, x, &s) }); n != 0 {
		t.Errorf("GRUCell.StepInferInto allocates %v per op, want 0", n)
	}
}

func TestLogRegPredictZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewLogReg(4, rng)
	x := randVec(rng, 4)
	if n := testing.AllocsPerRun(100, func() { l.Predict(x) }); n != 0 {
		t.Errorf("LogReg.Predict allocates %v per op, want 0", n)
	}
}

func TestMLPApplyWithZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := NewMLP([]int{28, 24, 1}, ReLUAct, SigmoidAct, rng)
	x := randVec(rng, 28)
	var s Scratch
	m.ApplyWith(&s, x) // warm the scratch buffers
	if n := testing.AllocsPerRun(100, func() { m.ApplyWith(&s, x) }); n != 0 {
		t.Errorf("MLP.ApplyWith allocates %v per op, want 0", n)
	}
}

// TestScratchKernelsBitIdentical proves the scratch/into kernels compute
// exactly what the allocating kernels do (the determinism contract: the
// hot path may not change a single bit of any result).
func TestScratchKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20; trial++ {
		d := NewDense(9, 5, TanhAct, rng)
		x := randVec(rng, 9)
		want := d.Apply(x)
		got := d.ApplyInto(NewVec(5), x)
		requireEqualVecs(t, "Dense.ApplyInto", got, want)

		g := NewGRUCell(6, 8, rng)
		h := randVec(rng, 8)
		xg := randVec(rng, 6)
		wantH, _ := g.Step(h, xg)
		var s Scratch
		gotH := g.StepInferInto(NewVec(8), h, xg, &s)
		requireEqualVecs(t, "GRUCell.StepInferInto", gotH, wantH)

		// In-place: dst aliasing h must produce the same state.
		hc := h.Clone()
		g.StepInferInto(hc, hc, xg, &s)
		requireEqualVecs(t, "GRUCell.StepInferInto in-place", hc, wantH)

		m := NewMLP([]int{7, 11, 3}, ReLUAct, SigmoidAct, rng)
		xm := randVec(rng, 7)
		wantM := m.Apply(xm)
		gotM := m.ApplyWith(&s, xm)
		requireEqualVecs(t, "MLP.ApplyWith", gotM, wantM)
	}
}

// TestForwardMatchesApply guards the Forward one-clone fix: Forward must
// still return exactly Apply's output and leave the caller's input intact.
func TestForwardMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := NewDense(5, 4, SigmoidAct, rng)
	x := randVec(rng, 5)
	xOrig := x.Clone()
	want := d.Apply(x)
	got := d.Forward(x)
	requireEqualVecs(t, "Dense.Forward", got, want)
	requireEqualVecs(t, "Forward input", x, xOrig)
}

func randVec(rng *rand.Rand, n int) Vec {
	v := NewVec(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func requireEqualVecs(t *testing.T, what string, got, want Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %v, want %v (must be bit-identical)", what, i, got[i], want[i])
		}
	}
}

func BenchmarkDenseApply(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(32, 32, ReLUAct, rng)
	x := randVec(rng, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply(x)
	}
}

func BenchmarkGRUStepInferInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGRUCell(7, 16, rng)
	x := randVec(rng, 7)
	h := NewVec(16)
	var s Scratch
	g.StepInferInto(h, h, x, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.StepInferInto(h, h, x, &s)
	}
}

func BenchmarkMLPApplyWith(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{28, 24, 1}, ReLUAct, SigmoidAct, rng)
	x := randVec(rng, 28)
	var s Scratch
	m.ApplyWith(&s, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ApplyWith(&s, x)
	}
}
