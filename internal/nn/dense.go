package nn

import (
	"fmt"
	"math"

	"tbnet/internal/tensor"
)

// Dense is a fully connected layer over [N, In] inputs.
type Dense struct {
	In, Out   int
	W         *Param // [In, Out] float32; nil while the layer is int8 (qw)
	B         *Param // [Out]
	name      string
	lastInput *tensor.Tensor

	// qw/qscale arm the int8 inference path (SetInt8Weights): the quantized
	// [Out, In] weights packed for the int8 kernel, with per-output scales,
	// shared by clones.
	qw     *tensor.I8Weights
	qscale []float32
}

// NewDense creates a dense layer with He-normal weights drawn from rng and
// zero bias. A nil rng builds it without weights, for the artifact loader,
// which gives it float32 weights (SetWeights) or int8 ones (SetInt8Weights).
func NewDense(name string, in, out int, rng *tensor.RNG) *Dense {
	d := &Dense{In: in, Out: out, B: newParam(name+".bias", tensor.New(out), true), name: name}
	if rng != nil {
		w := tensor.New(in, out)
		rng.FillNormal(w, 0, math.Sqrt(2.0/float64(in)))
		d.W = newParam(name+".weight", w, true)
	}
	return d
}

// Name returns the layer's diagnostic name.
func (d *Dense) Name() string { return d.name }

// Params returns the float32 weight (none when the layer is int8) and the
// bias.
func (d *Dense) Params() []*Param { return params(d.W, d.B) }

// OutShape maps [N, In] to [N, Out].
func (d *Dense) OutShape(in []int) []int { return []int{in[0], d.Out} }

// Forward computes x@W + b. In eval mode no backward state is retained, so
// the input tensor is not pinned past the call.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Dim(0), d.Out)
	d.ForwardInto(out, x, nil)
	if train {
		d.lastInput = x
	} else {
		d.lastInput = nil
	}
	return out
}

// ForwardInto is the eval-mode inference path: x@W + b written into dst
// ([N,Out]). No state is retained; the float32 path needs no scratch, so
// the arena may be nil, while the int8 path draws its quantization scratch
// from the arena (creating a private one when nil).
func (d *Dense) ForwardInto(dst, x *tensor.Tensor, a *Arena) {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: %s expects [N,%d] input, got %v", d.name, d.In, x.Shape()))
	}
	if d.qw != nil {
		if a == nil {
			a = NewArena()
		}
		d.forwardIntoI8(dst, x, a)
		return
	}
	tensor.MatMulInto(dst, x, d.W.Value)
	od, bd := dst.Data(), d.B.Value.Data()
	n := x.Dim(0)
	for i := 0; i < n; i++ {
		row := od[i*d.Out : (i+1)*d.Out]
		for j := range row {
			row[j] += bd[j]
		}
	}
}

// Backward accumulates dW = xᵀ@dy, dB = Σdy and returns dx = dy@Wᵀ.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := d.lastInput
	if x == nil {
		panic("nn: Dense.Backward before Forward")
	}
	dW := tensor.MatMul(tensor.Transpose(x), grad)
	d.Weight().Gradient().AddInPlace(dW)
	bg, gd := d.B.Gradient().Data(), grad.Data()
	n := x.Dim(0)
	for i := 0; i < n; i++ {
		row := gd[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			bg[j] += v
		}
	}
	return tensor.MatMul(grad, tensor.Transpose(d.W.Value))
}
