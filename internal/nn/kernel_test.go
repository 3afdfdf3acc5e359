package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// applyRowByRow is the one-row-at-a-time dense kernel ApplyInto replaced:
// one accumulator, rows in order, j ascending, the activation applied as
// each row finishes. It is the oracle for the interleaved kernel's
// summation order.
func applyRowByRow(d *Dense, dst, x Vec) Vec {
	for i := 0; i < d.Out; i++ {
		row := d.W[i*d.In : (i+1)*d.In]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] = d.Act.apply(s + d.B[i])
	}
	return dst
}

// specialValues are the inputs whose bits an order change would most
// likely move: signed zeros, NaN, infinities and subnormals.
var specialValues = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, 1e308, -1e308,
}

// sameBits reports whether a and b have the same Float64bits, or are both
// NaN. Which NaN an add of two NaNs returns is not a matter of summation
// order: x86 keeps its first operand's, and the compiler may commute an
// add, so that choice is the register allocator's.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestDenseApplyIntoMatchesRowByRow compares the interleaved kernel with
// the one-row reference by Float64bits, for every row count that leaves a
// different remainder after the four-row passes and the input widths the
// trackers use.
func TestDenseApplyIntoMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	outs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 24}
	ins := []int{1, 7, 23, 28}
	acts := []Activation{Linear, SigmoidAct, TanhAct, ReLUAct}
	for _, out := range outs {
		for _, in := range ins {
			for _, act := range acts {
				for trial := 0; trial < 12; trial++ {
					d := NewDense(in, out, act, rng)
					for i := range d.B {
						d.B[i] = rng.NormFloat64()
					}
					x := randVec(rng, in)
					// Half the trials plant special values in the input,
					// a weight and a bias.
					if trial%2 == 1 {
						for k := 0; k < 1+in/4; k++ {
							x[rng.Intn(in)] = specialValues[rng.Intn(len(specialValues))]
						}
						d.W[rng.Intn(len(d.W))] = specialValues[rng.Intn(len(specialValues))]
						d.B[rng.Intn(out)] = specialValues[rng.Intn(len(specialValues))]
					}
					want := applyRowByRow(d, NewVec(out), x)
					got := d.ApplyInto(NewVec(out), x)
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("%d→%d act %d trial %d: out[%d] = %v (%#x), row-by-row %v (%#x)",
								in, out, act, trial, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// BenchmarkDenseApplyInto runs the kernel at the recurrent tracker's
// shapes: a GRU gate (23 → 16) and the matcher's hidden layer (28 → 24).
func BenchmarkDenseApplyInto(b *testing.B) {
	for _, sh := range [][2]int{{23, 16}, {28, 24}} {
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			d := NewDense(sh[0], sh[1], SigmoidAct, rng)
			x := randVec(rng, sh[0])
			dst := NewVec(sh[1])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.ApplyInto(dst, x)
			}
		})
	}
}
