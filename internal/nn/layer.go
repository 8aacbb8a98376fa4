// Package nn implements the neural-network layers used by the TBNet
// reproduction: 2-D convolution, batch normalization, ReLU, pooling, dense
// layers, and a softmax cross-entropy loss, each with a hand-written backward
// pass (validated against numerical gradients in the tests). It also provides
// the model-surgery primitives (channel pruning) that TBNet's iterative
// two-branch pruning relies on.
//
// Tensors follow NCHW layout. Layers are stateful: Forward caches whatever the
// subsequent Backward needs, so a layer instance must not be shared across
// concurrent graphs.
package nn

import (
	"tbnet/internal/tensor"
)

// Param is a trainable parameter with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	// Grad is the gradient accumulator, nil until Gradient first asks for it:
	// a loaded or replicated model that only serves never holds one.
	Grad *tensor.Tensor
	// Decay marks the parameter as subject to L2 weight decay. Batch-norm
	// scales/offsets keep it false so the L1 sparsity penalty of Eq. 1 is the
	// only regularizer acting on them.
	Decay bool
}

func newParam(name string, v *tensor.Tensor, decay bool) *Param {
	return &Param{Name: name, Value: v, Decay: decay}
}

// clone deep-copies the parameter without its gradient; a nil parameter (the
// weight an int8 layer does not hold, an absent bias) stays nil.
func (p *Param) clone() *Param {
	if p == nil {
		return nil
	}
	return newParam(p.Name, p.Value.Clone(), p.Decay)
}

// params returns the parameters of ps a layer holds: nil ones are left out.
func params(ps ...*Param) []*Param {
	out := ps[:0]
	for _, p := range ps {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// Gradient returns the gradient accumulator, allocating it zeroed on first
// use. Backward passes call it only outside their parallel regions, so the
// first touch never races.
func (p *Param) Gradient() *tensor.Tensor {
	if p.Grad == nil {
		p.Grad = tensor.New(p.Value.Shape()...)
	}
	return p.Grad
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Gradient().Zero() }

// Layer is one differentiable module. Forward computes the output for input x
// (train toggles batch-statistics behaviour); Backward consumes the gradient
// with respect to the last Forward output and returns the gradient with
// respect to its input, accumulating parameter gradients along the way.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	// OutShape reports the output shape for a given input shape (excluding
	// the batch dimension handling: shapes include N).
	OutShape(in []int) []int
}

// fansOut reports whether parallelFor(n, grain, ·) crosses the worker pool.
// The inference paths loop inline when it does not, building no closure:
// the one handed to parallelFor escapes, so a batch below the grain would
// otherwise allocate on every call.
func fansOut(n, grain int) bool { return n >= 2*grain && tensor.Workers() > 1 }

// parallelFor runs fn(worker, i) for i in [0, n) across the persistent
// tensor worker pool, in ranges of at least grain items (tensor.Parallel).
// worker is a dense chunk index usable for per-worker scratch; work of fewer
// than two ranges, or a single-proc run, executes inline with no dispatch
// cost. fn must use the serial tensor kernels (the pool does not re-enter).
func parallelFor(n, grain int, fn func(worker, i int)) {
	if !fansOut(n, grain) {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	tensor.Parallel(n, grain, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(w, i)
		}
	})
}
