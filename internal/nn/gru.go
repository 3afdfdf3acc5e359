package nn

import "math/rand"

// GRUCell is a gated recurrent cell used by the recurrent reduced-rate
// tracker to summarize a track prefix (a sequence of detection feature
// vectors) into a fixed-size track-level feature vector.
//
// Update rule (standard GRU):
//
//	z = sigmoid(Wz [h, x])
//	r = sigmoid(Wr [h, x])
//	c = tanh(Wc [r*h, x])
//	h' = (1-z)*h + z*c
type GRUCell struct {
	InSize, HiddenSize int
	Wz, Wr, Wc         *Dense
}

// NewGRUCell creates a GRU cell with the given input and hidden sizes.
func NewGRUCell(in, hidden int, rng *rand.Rand) *GRUCell {
	return &GRUCell{
		InSize:     in,
		HiddenSize: hidden,
		Wz:         NewDense(in+hidden, hidden, SigmoidAct, rng),
		Wr:         NewDense(in+hidden, hidden, SigmoidAct, rng),
		Wc:         NewDense(in+hidden, hidden, TanhAct, rng),
	}
}

// gruStep holds everything needed to backprop through one Step call.
type gruStep struct {
	h, x, z, r, c, hNew Vec
}

// Step advances the hidden state by one input. It returns the new hidden
// state and an opaque record for StepBackward. Not safe for concurrent
// use (the gate layers retain backward state); inference uses StepInferInto.
func (g *GRUCell) Step(h, x Vec) (Vec, *gruStep) {
	hx := Concat(h, x)
	z := g.Wz.Forward(hx)
	r := g.Wr.Forward(hx)
	rh := NewVec(g.HiddenSize)
	for i := range rh {
		rh[i] = r[i] * h[i]
	}
	c := g.Wc.Forward(Concat(rh, x))
	hNew := NewVec(g.HiddenSize)
	for i := range hNew {
		hNew[i] = (1-z[i])*h[i] + z[i]*c[i]
	}
	return hNew, &gruStep{h: h.Clone(), x: x.Clone(), z: z, r: r, c: c, hNew: hNew}
}

// StepInferInto advances the hidden state by one input without retaining
// any backward state, so concurrent inference on a shared cell is safe. It
// writes the new state into dst (len HiddenSize) and returns dst. All
// intermediates live in the scratch, so steady-state calls allocate
// nothing. dst may alias h (the common in-place update), but must not alias
// a scratch buffer. Output is bit-identical to Step's.
func (g *GRUCell) StepInferInto(dst, h, x Vec, s *Scratch) Vec {
	n := g.HiddenSize
	hx := growVec(&s.hx, n+len(x))
	copy(hx, h)
	copy(hx[n:], x)
	z := g.Wz.ApplyInto(growVec(&s.z, n), hx)
	r := g.Wr.ApplyInto(growVec(&s.r, n), hx)
	rh := growVec(&s.rh, n)
	for i := range rh {
		rh[i] = r[i] * h[i]
	}
	rhx := growVec(&s.rhx, n+len(x))
	copy(rhx, rh)
	copy(rhx[n:], x)
	c := g.Wc.ApplyInto(growVec(&s.c, n), rhx)
	for i := 0; i < n; i++ {
		dst[i] = (1-z[i])*h[i] + z[i]*c[i]
	}
	return dst
}

// StepBackward backpropagates dL/dh' through one step recorded by Step,
// applying SGD updates to the gate weights and returning (dL/dh, dL/dx).
//
// The Dense layers retain their forward state, so callers must backprop
// steps in strict reverse order of the corresponding forward calls and
// re-run the forward pass for each training example (the tracker's
// sequences are short, so this is cheap).
func (g *GRUCell) StepBackward(s *gruStep, dHNew Vec, lr, clip float64) (dH, dX Vec) {
	n := g.HiddenSize
	dH = NewVec(n)
	dX = NewVec(g.InSize)

	dZ := NewVec(n)
	dC := NewVec(n)
	for i := 0; i < n; i++ {
		dZ[i] = dHNew[i] * (s.c[i] - s.h[i])
		dC[i] = dHNew[i] * s.z[i]
		dH[i] += dHNew[i] * (1 - s.z[i])
	}

	// Backprop through the candidate gate. We must restore Wc's forward
	// state for this step before calling Backward, because a later forward
	// call may have overwritten it.
	rh := NewVec(n)
	for i := range rh {
		rh[i] = s.r[i] * s.h[i]
	}
	g.Wc.refresh(Concat(rh, s.x), s.c)
	dRHX := g.Wc.Backward(dC, lr, clip)
	dR := NewVec(n)
	for i := 0; i < n; i++ {
		dR[i] = dRHX[i] * s.h[i]
		dH[i] += dRHX[i] * s.r[i]
	}
	for i := 0; i < g.InSize; i++ {
		dX[i] += dRHX[n+i]
	}

	hx := Concat(s.h, s.x)
	g.Wr.refresh(hx, s.r)
	dHXr := g.Wr.Backward(dR, lr, clip)
	g.Wz.refresh(hx, s.z)
	dHXz := g.Wz.Backward(dZ, lr, clip)
	for i := 0; i < n; i++ {
		dH[i] += dHXr[i] + dHXz[i]
	}
	for i := 0; i < g.InSize; i++ {
		dX[i] += dHXr[n+i] + dHXz[n+i]
	}
	return dH, dX
}

// refresh restores the layer's retained forward state to a previously
// computed (input, output) pair so Backward can be replayed for that call.
// The layer aliases both vectors rather than cloning them: Backward only
// reads lastIn/lastOut, and every refresh caller passes vectors that stay
// unmodified until the matching Backward returns.
func (d *Dense) refresh(in, out Vec) {
	d.lastIn = in
	d.lastOut = out
}

// RunSequence folds the cell over a sequence of inputs starting from the
// zero hidden state, returning the final hidden state and the per-step
// records (for training) in forward order.
func (g *GRUCell) RunSequence(xs []Vec) (Vec, []*gruStep) {
	h := NewVec(g.HiddenSize)
	steps := make([]*gruStep, 0, len(xs))
	for _, x := range xs {
		var s *gruStep
		h, s = g.Step(h, x)
		steps = append(steps, s)
	}
	return h, steps
}

// SequenceBackward backpropagates dL/dhFinal through a RunSequence call,
// applying SGD updates. Gradients with respect to the inputs are discarded
// (detection features are not trained through in OTIF's tracker).
func (g *GRUCell) SequenceBackward(steps []*gruStep, dHFinal Vec, lr, clip float64) {
	dH := dHFinal
	for i := len(steps) - 1; i >= 0; i-- {
		dH, _ = g.StepBackward(steps[i], dH, lr, clip)
	}
}
