package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecDot(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, 5, 6}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched Dot should panic")
		}
	}()
	a.Dot(Vec{1})
}

func TestConcat(t *testing.T) {
	got := Concat(Vec{1}, Vec{2, 3}, nil, Vec{4})
	want := Vec{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Concat[%d] = %v", i, got[i])
		}
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(100); got <= 0.999 {
		t.Errorf("Sigmoid(100) = %v", got)
	}
	if got := Sigmoid(-100); got >= 0.001 {
		t.Errorf("Sigmoid(-100) = %v", got)
	}
	// Numerically stable at extremes.
	if math.IsNaN(Sigmoid(-1e9)) || math.IsNaN(Sigmoid(1e9)) {
		t.Error("sigmoid overflow")
	}
}

func TestActivationDerivatives(t *testing.T) {
	// derivFromOutput matches a finite difference of the activation.
	for _, act := range []Activation{SigmoidAct, TanhAct, ReLUAct, Linear} {
		for _, x := range []float64{-2, -0.5, 0.3, 1.7} {
			const h = 1e-6
			num := (act.apply(x+h) - act.apply(x-h)) / (2 * h)
			ana := act.derivFromOutput(act.apply(x))
			if math.Abs(num-ana) > 1e-4 {
				t.Errorf("act %v at %v: numeric %v vs analytic %v", act, x, num, ana)
			}
		}
	}
}

// TestDenseGradient verifies the backward pass against numerical gradients.
func TestDenseGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense(3, 2, TanhAct, rng)
	x := Vec{0.3, -0.7, 0.5}
	target := Vec{0.2, -0.1}

	loss := func() float64 {
		y := d.Forward(x)
		var l float64
		for i := range y {
			l += 0.5 * (y[i] - target[i]) * (y[i] - target[i])
		}
		return l
	}

	// Numerical gradient wrt one weight.
	const h = 1e-6
	orig := d.W[1]
	d.W[1] = orig + h
	lp := loss()
	d.W[1] = orig - h
	lm := loss()
	d.W[1] = orig
	numGrad := (lp - lm) / (2 * h)

	// Analytic: run forward, backward with lr so that update = lr*grad;
	// recover grad from the weight delta.
	y := d.Forward(x)
	dOut := NewVec(2)
	for i := range y {
		dOut[i] = y[i] - target[i] // d/dy of 0.5*(y-t)^2
	}
	const lr = 1e-3
	before := d.W[1]
	d.Backward(dOut, lr, 0)
	anaGrad := (before - d.W[1]) / lr

	if math.Abs(numGrad-anaGrad) > 1e-4*(1+math.Abs(numGrad)) {
		t.Errorf("gradient mismatch: numeric %v analytic %v", numGrad, anaGrad)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{2, 12, 1}, TanhAct, SigmoidAct, rng)
	inputs := []Vec{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 12000; epoch++ {
		i := rng.Intn(4)
		p := m.Forward(inputs[i])
		_, g := BCELoss(p[0], targets[i])
		m.Backward(Vec{g}, 0.8, 2)
	}
	for i, in := range inputs {
		p := m.Forward(in)[0]
		if (p > 0.5) != (targets[i] > 0.5) {
			t.Errorf("XOR(%v) = %v, want %v", in, p, targets[i])
		}
	}
}

func TestBCELoss(t *testing.T) {
	l, g := BCELoss(0.5, 1)
	if math.Abs(l-math.Log(2)) > 1e-9 {
		t.Errorf("BCE(0.5,1) = %v", l)
	}
	if g >= 0 {
		t.Error("gradient should push p up toward 1")
	}
	// Extreme inputs are clamped, not infinite.
	l, _ = BCELoss(0, 1)
	if math.IsInf(l, 0) || math.IsNaN(l) {
		t.Errorf("BCE(0,1) = %v", l)
	}
}

func TestMLPPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMLP([]int{3}, TanhAct, Linear, rand.New(rand.NewSource(1)))
}

func TestDenseForwardDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		d1 := NewDense(4, 3, ReLUAct, r1)
		d2 := NewDense(4, 3, ReLUAct, r2)
		x := Vec{0.1, -0.2, 0.4, 0.8}
		y1 := d1.Forward(x)
		y2 := d2.Forward(x)
		for i := range y1 {
			if y1[i] != y2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestClipVal(t *testing.T) {
	if clipVal(5, 1) != 1 || clipVal(-5, 1) != -1 || clipVal(0.5, 1) != 0.5 {
		t.Error("clipVal misbehaves")
	}
	if clipVal(5, 0) != 5 {
		t.Error("clip disabled should pass through")
	}
}
