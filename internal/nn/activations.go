package nn

import "tbnet/internal/tensor"

// ReLU is the rectified linear activation.
type ReLU struct {
	name string
	mask []bool
}

// NewReLU creates a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name returns the layer's diagnostic name.
func (r *ReLU) Name() string { return r.name }

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// OutShape is the identity.
func (r *ReLU) OutShape(in []int) []int { return in }

// Forward clamps negatives to zero and records the active mask.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	if cap(r.mask) < len(xd) {
		r.mask = make([]bool, len(xd))
	}
	r.mask = r.mask[:len(xd)]
	for i, v := range xd {
		if v > 0 {
			od[i] = v
			r.mask[i] = true
		} else {
			r.mask[i] = false
		}
	}
	return out
}

// ForwardInto is the eval-mode inference path: negatives clamped to zero,
// written into dst without recording the backward mask and without a branch
// on the data (tensor.ReLU). dst may equal x for in-place operation; the
// arena may be nil.
func (r *ReLU) ForwardInto(dst, x *tensor.Tensor, _ *Arena) {
	xd, od := x.Data(), dst.Data()
	if len(od) != len(xd) {
		panic("nn: ReLU destination size mismatch")
	}
	for i, v := range xd {
		od[i] = tensor.ReLU(v)
	}
}

// Backward gates the gradient by the activation mask.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(grad.Shape()...)
	gd, dd := grad.Data(), dx.Data()
	for i, on := range r.mask[:len(gd)] {
		if on {
			dd[i] = gd[i]
		}
	}
	return dx
}
