// Package nn is a small pure-Go neural network library used by OTIF's
// learned components: the segmentation proxy model (logistic regression over
// cell features), the recurrent reduced-rate tracker (GRU-style cell plus a
// matching MLP), and the proxy models of the BlazeIt/TASTI/NoScope baselines.
//
// It deliberately supports only what those components need: dense layers,
// a gated recurrent cell, sigmoid/tanh/ReLU activations, binary cross
// entropy loss, and plain SGD with gradient clipping.
// All math is float64 and all randomness flows through an explicit
// *rand.Rand so training is deterministic given a seed.
//
// Inference has two tiers. The allocating kernels (Dense.Apply, MLP.Apply)
// return fresh vectors and are convenient for training and one-off probes.
// The zero-allocation kernels (ApplyInto, ApplyWith, StepInferInto) write
// into caller-owned buffers or a reusable Scratch and run without heap
// allocations in steady state — they are what the per-frame hot path uses. They perform the exact float64 operations of
// the allocating and training kernels (Apply, GRUCell.Step) in the same
// order, so their outputs are bit-identical.
//
// Every dense layer runs through one kernel, Dense.ApplyInto. Each output
// row sums its products in ascending input order; rows interleave four at
// a time, so the independent sums overlap in the floating-point adder, and
// the result is the one-row-at-a-time loop's bit for bit.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vec) Dot(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("nn: dot of length %d and %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Concat returns the concatenation of the given vectors.
func Concat(vs ...Vec) Vec {
	var n int
	for _, v := range vs {
		n += len(v)
	}
	out := make(Vec, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// Sigmoid is the logistic function.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// Tanh is the hyperbolic tangent.
func Tanh(x float64) float64 { return math.Tanh(x) }

// ReLU is the rectified linear unit.
func ReLU(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// Activation identifies the nonlinearity used by a Dense layer.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	SigmoidAct
	TanhAct
	ReLUAct
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case SigmoidAct:
		return Sigmoid(x)
	case TanhAct:
		return Tanh(x)
	case ReLUAct:
		return ReLU(x)
	default:
		return x
	}
}

// derivFromOutput returns the activation derivative expressed in terms of
// the activation output y (valid for all supported activations).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case SigmoidAct:
		return y * (1 - y)
	case TanhAct:
		return 1 - y*y
	case ReLUAct:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// Scratch holds reusable buffers for the zero-allocation inference
// kernels. A scratch is owned by exactly one goroutine; every kernel call
// overwrites its buffers, so values returned by scratch-based kernels
// (ApplyWith) are only valid until the next call with the same scratch.
// The zero value is ready to use — buffers grow on first use and are
// reused afterwards.
type Scratch struct {
	hx, rh, rhx, z, r, c Vec // GRU gate buffers
	a, b                 Vec // MLP ping-pong buffers
}

// growVec resizes *v to length n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func growVec(v *Vec, n int) Vec {
	if cap(*v) < n {
		*v = make(Vec, n)
	}
	*v = (*v)[:n]
	return *v
}

// Dense is a fully connected layer with bias: y = act(W x + b). Weights
// are stored as one flat row-major vector — row i occupies
// W[i*In : (i+1)*In] — so the inference kernels stream memory linearly and
// allocate nothing. Each row's dot product accumulates in ascending index
// order, as a slice-of-rows layout would, so results are bit-identical to
// it however the rows interleave.
type Dense struct {
	In, Out int
	W       Vec // flat row-major weights, len Out*In
	B       Vec
	Act     Activation

	// scratch for backward
	lastIn  Vec
	lastOut Vec
}

// NewDense creates a Dense layer with Xavier-style initialization drawn from
// rng.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, Act: act, B: NewVec(out), W: NewVec(in * out)}
	scale := math.Sqrt(2.0 / float64(in+out))
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * scale
	}
	return d
}

// Row returns row i of the weight matrix as a view into the flat layout.
func (d *Dense) Row(i int) Vec { return d.W[i*d.In : (i+1)*d.In] }

// Forward computes the layer output, retaining state for Backward. Not
// safe for concurrent use — inference paths that share a model across
// goroutines must call Apply instead.
func (d *Dense) Forward(x Vec) Vec {
	out := d.Apply(x)
	d.lastIn = x.Clone()
	d.lastOut = out
	return out
}

// Apply computes the layer output without retaining backward state. It
// reads only the weights, so concurrent Apply calls on a shared layer are
// safe (as long as no goroutine is training the layer).
func (d *Dense) Apply(x Vec) Vec {
	return d.ApplyInto(NewVec(d.Out), x)
}

// ApplyInto computes the layer output into dst (len Out) and returns dst.
// It allocates nothing and reads only the weights, so concurrent calls on
// a shared layer are safe as long as each goroutine owns its dst. dst must
// not alias x.
func (d *Dense) ApplyInto(dst, x Vec) Vec {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: dense expected input %d, got %d", d.In, len(x)))
	}
	if len(dst) != d.Out {
		panic(fmt.Sprintf("nn: dense expected output buffer %d, got %d", d.Out, len(dst)))
	}
	// Four rows per pass: each keeps its own accumulator and sums over j in
	// ascending order, so every output is the one-row loop's bit for bit,
	// while the four independent add chains hide the add latency that
	// bounds a single chain.
	n := len(x)
	b := d.B[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		w0 := d.W[i*n:][:n]
		w1 := d.W[(i+1)*n:][:n]
		w2 := d.W[(i+2)*n:][:n]
		w3 := d.W[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += w0[j] * xj
			s1 += w1[j] * xj
			s2 += w2[j] * xj
			s3 += w3[j] * xj
		}
		dst[i] = s0 + b[i]
		dst[i+1] = s1 + b[i+1]
		dst[i+2] = s2 + b[i+2]
		dst[i+3] = s3 + b[i+3]
	}
	for ; i < len(dst); i++ {
		w0 := d.W[i*n:][:n]
		var s0 float64
		for j, xj := range x {
			s0 += w0[j] * xj
		}
		dst[i] = s0 + b[i]
	}
	switch d.Act {
	case SigmoidAct:
		for i, v := range dst {
			dst[i] = Sigmoid(v)
		}
	case TanhAct:
		for i, v := range dst {
			dst[i] = Tanh(v)
		}
	case ReLUAct:
		for i, v := range dst {
			dst[i] = ReLU(v)
		}
	}
	return dst
}

// Backward takes dL/dy and applies an SGD update with learning rate lr,
// returning dL/dx. Gradients are clipped elementwise to [-clip, clip]
// (clip <= 0 disables clipping).
func (d *Dense) Backward(dOut Vec, lr, clip float64) Vec {
	dIn := NewVec(d.In)
	for i := 0; i < d.Out; i++ {
		g := dOut[i] * d.Act.derivFromOutput(d.lastOut[i])
		g = clipVal(g, clip)
		row := d.W[i*d.In : (i+1)*d.In]
		for j := 0; j < d.In; j++ {
			dIn[j] += g * row[j]
			row[j] -= lr * g * d.lastIn[j]
		}
		d.B[i] -= lr * g
	}
	return dIn
}

func clipVal(g, clip float64) float64 {
	if clip <= 0 {
		return g
	}
	if g > clip {
		return clip
	}
	if g < -clip {
		return -clip
	}
	return g
}

// MLP is a feed-forward stack of Dense layers.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer sizes; hidden layers use hidden
// activation, the final layer uses final.
func NewMLP(sizes []int, hidden, final Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hidden
		if i+2 == len(sizes) {
			act = final
		}
		m.Layers = append(m.Layers, NewDense(sizes[i], sizes[i+1], act, rng))
	}
	return m
}

// Forward runs the network on x, retaining per-layer state for Backward.
// Not safe for concurrent use; inference paths use Apply.
func (m *MLP) Forward(x Vec) Vec {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Apply runs the network on x without retaining backward state, so
// concurrent Apply calls on a shared network are safe.
func (m *MLP) Apply(x Vec) Vec {
	for _, l := range m.Layers {
		x = l.Apply(x)
	}
	return x
}

// ApplyWith runs the network on x using the scratch's ping-pong buffers,
// allocating nothing in steady state. The returned vector is owned by the
// scratch and valid only until its next use. x must not alias the
// scratch's buffers (a vector previously returned by ApplyWith with the
// same scratch). Output is bit-identical to Apply's.
func (m *MLP) ApplyWith(s *Scratch, x Vec) Vec {
	cur := x
	for i, l := range m.Layers {
		var dst Vec
		if i%2 == 0 {
			dst = growVec(&s.a, l.Out)
		} else {
			dst = growVec(&s.b, l.Out)
		}
		l.ApplyInto(dst, cur)
		cur = dst
	}
	return cur
}

// Backward backpropagates dL/dy through the network with SGD updates.
func (m *MLP) Backward(dOut Vec, lr, clip float64) Vec {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dOut = m.Layers[i].Backward(dOut, lr, clip)
	}
	return dOut
}

// BCELoss returns the binary cross entropy between prediction p in (0,1)
// and target t in {0,1}, along with dL/dp.
func BCELoss(p, t float64) (loss, grad float64) {
	const eps = 1e-7
	p = math.Min(math.Max(p, eps), 1-eps)
	loss = -(t*math.Log(p) + (1-t)*math.Log(1-p))
	grad = (p - t) / (p * (1 - p))
	return loss, grad
}
