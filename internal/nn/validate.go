package nn

import (
	"errors"
	"fmt"
	"math"
)

// The Validate methods report why a network read from a file cannot run,
// or nil. Every kernel here trusts its shapes and panics on a mismatch, so
// a loader checks them once instead.

// Validate checks the weight and bias counts against In and Out, the
// activation, and that every parameter is finite.
func (d *Dense) Validate() error {
	switch {
	case d.In <= 0 || d.Out <= 0 || len(d.W) != d.In*d.Out:
		return fmt.Errorf("%d weights for %d→%d", len(d.W), d.In, d.Out)
	case len(d.B) != d.Out:
		return fmt.Errorf("bias has %d entries, want %d", len(d.B), d.Out)
	case d.Act < Linear || d.Act > ReLUAct:
		return fmt.Errorf("unknown activation %d", d.Act)
	case !finite(d.W) || !finite(d.B):
		return errNotFinite
	}
	return nil
}

// Validate checks every layer and that the stack maps in inputs to out
// outputs, each layer's output feeding the next layer's input.
func (m *MLP) Validate(in, out int) error {
	if len(m.Layers) == 0 {
		return errors.New("no layers")
	}
	for i, l := range m.Layers {
		if l.In != in {
			return fmt.Errorf("layer %d: input %d, want %d", i, l.In, in)
		}
		if err := l.Validate(); err != nil {
			return fmt.Errorf("layer %d: %w", i, err)
		}
		in = l.Out
	}
	if in != out {
		return fmt.Errorf("layer %d: output %d, want %d", len(m.Layers)-1, in, out)
	}
	return nil
}

// Validate checks that every gate maps [h, x] (HiddenSize+InSize) to
// HiddenSize.
func (g *GRUCell) Validate() error {
	for _, gate := range []struct {
		name string
		d    *Dense
	}{{"Wz", g.Wz}, {"Wr", g.Wr}, {"Wc", g.Wc}} {
		if gate.d.In != g.HiddenSize+g.InSize || gate.d.Out != g.HiddenSize {
			return fmt.Errorf("gate %s is %d→%d, want %d→%d", gate.name, gate.d.In, gate.d.Out, g.HiddenSize+g.InSize, g.HiddenSize)
		}
		if err := gate.d.Validate(); err != nil {
			return fmt.Errorf("gate %s: %w", gate.name, err)
		}
	}
	return nil
}

// Validate checks that l weighs n features with finite parameters.
func (l *LogReg) Validate(n int) error {
	switch {
	case len(l.W) != n:
		return fmt.Errorf("%d weights, want %d", len(l.W), n)
	case !finite(l.W) || !finite(Vec{l.B}):
		return errNotFinite
	}
	return nil
}

var errNotFinite = errors.New("a parameter is not finite")

func finite(v Vec) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
