package nn

import (
	"math"

	"tbnet/internal/tensor"
)

// MaxPool2D is a max pooling layer with square window and stride == window.
type MaxPool2D struct {
	K       int
	name    string
	argmax  []int
	inShape []int
}

// NewMaxPool2D creates a k×k max pool with stride k.
func NewMaxPool2D(name string, k int) *MaxPool2D { return &MaxPool2D{K: k, name: name} }

// Name returns the layer's diagnostic name.
func (p *MaxPool2D) Name() string { return p.name }

// Params returns nil: pooling has no parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// OutShape halves (by K) the spatial dimensions.
func (p *MaxPool2D) OutShape(in []int) []int {
	return []int{in[0], in[1], in[2] / p.K, in[3] / p.K}
}

// Forward computes the max over each window. In training mode it records
// the argmax positions for Backward; in eval mode no backward scratch is
// touched.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := tensor.New(n, c, h/p.K, w/p.K)
	if !train {
		p.ForwardInto(out, x, nil)
		return out
	}
	if cap(p.argmax) < out.Size() {
		p.argmax = make([]int, out.Size())
	}
	p.argmax = p.argmax[:out.Size()]
	p.inShape = []int{n, c, h, w}
	p.pool(out.Data(), x.Data(), n, c, h, w, p.argmax)
	return out
}

// ForwardInto is the eval-mode inference path: the pooled maxima written
// into dst (shaped per OutShape) with no argmax recording — for the 2×2
// window every model in the zoo pools with, by a loop that has no argmax to
// carry and no branch to mispredict. The arena may be nil.
func (p *MaxPool2D) ForwardInto(dst, x *tensor.Tensor, _ *Arena) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if dst.Size() != n*c*(h/p.K)*(w/p.K) {
		panic("nn: MaxPool2D destination size mismatch")
	}
	if p.K == 2 {
		pool2(dst.Data(), x.Data(), n*c, h, w)
		return
	}
	p.pool(dst.Data(), x.Data(), n, c, h, w, nil)
}

// pool2 is pool for K = 2 without the argmax: the same four values in the
// same order through the same v > bv comparison (maxGT), so NaNs, -0 and
// ties come out exactly as pool leaves them. Which of a window's values is
// largest is a coin toss on post-ReLU activations, and pool's branch on it
// is most of what it costs: per sample on VGG18-S's four pooled stages,
// BenchmarkMaxPoolForwardInto reads 22.3 / 12.0 / 4.4 / 1.3 µs for pool and
// 4.7 / 2.8 / 1.3 / 0.6 µs for pool2 on the reference box. (On one input
// repeated, the predictor learns pool's branches and a branching pool2 reads
// 2.5 µs on the first stage — and 13 µs on fresh inputs. The benchmark
// rotates its inputs for that reason.)
func pool2(od, xd []float32, planes, h, w int) {
	oh, ow := h/2, w/2
	for pl := 0; pl < planes; pl++ {
		plane := xd[pl*h*w : (pl+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			out := od[(pl*oh+oy)*ow:][:ow]
			r0 := plane[2*oy*w:][:2*ow]
			r1 := plane[(2*oy+1)*w:][:2*ow]
			for ox := range out {
				bv := maxGT(r0[2*ox], r0[2*ox+1])
				bv = maxGT(bv, r1[2*ox])
				out[ox] = maxGT(bv, r1[2*ox+1])
			}
		}
	}
}

// maxGT returns v when v > bv and bv otherwise — not the builtin max, which
// propagates NaN and orders -0 below +0 — selected on the bit patterns so
// the comparison costs a flag, not a branch.
func maxGT(bv, v float32) float32 {
	var take uint32
	if v > bv {
		take = 1
	}
	b := math.Float32bits(bv)
	return math.Float32frombits(b ^ (b^math.Float32bits(v))&-take)
}

// pool runs the window maximum; argmax is recorded when non-nil.
func (p *MaxPool2D) pool(od, xd []float32, n, c, h, w int, argmax []int) {
	oh, ow := h/p.K, w/p.K
	oi := 0
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			plane := (i*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := plane + (oy*p.K)*w + ox*p.K
					bv := xd[best]
					for ky := 0; ky < p.K; ky++ {
						row := plane + (oy*p.K+ky)*w + ox*p.K
						for kx := 0; kx < p.K; kx++ {
							if xd[row+kx] > bv {
								bv = xd[row+kx]
								best = row + kx
							}
						}
					}
					od[oi] = bv
					if argmax != nil {
						argmax[oi] = best
					}
					oi++
				}
			}
		}
	}
}

// Backward routes each output gradient to its argmax input position.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(p.inShape...)
	dd, gd := dx.Data(), grad.Data()
	for i, src := range p.argmax[:len(gd)] {
		dd[src] += gd[i]
	}
	return dx
}

// GlobalAvgPool averages each channel plane to a single value, producing
// [N, C] output ready for a dense classifier head.
type GlobalAvgPool struct {
	name    string
	inShape []int
}

// NewGlobalAvgPool creates a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name returns the layer's diagnostic name.
func (p *GlobalAvgPool) Name() string { return p.name }

// Params returns nil: pooling has no parameters.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// OutShape maps [N,C,H,W] to [N,C].
func (p *GlobalAvgPool) OutShape(in []int) []int { return []int{in[0], in[1]} }

// Forward averages over the spatial dimensions.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c := x.Dim(0), x.Dim(1)
	out := tensor.New(n, c)
	if train {
		p.inShape = []int{n, c, x.Dim(2), x.Dim(3)}
	}
	p.ForwardInto(out, x, nil)
	return out
}

// ForwardInto is the eval-mode inference path: per-channel spatial means
// written into dst ([N,C]). No state is retained; the arena may be nil.
func (p *GlobalAvgPool) ForwardInto(dst, x *tensor.Tensor, _ *Arena) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if dst.Size() != n*c {
		panic("nn: GlobalAvgPool destination size mismatch")
	}
	hw := h * w
	xd, od := x.Data(), dst.Data()
	inv := 1 / float32(hw)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * hw
			var s float32
			for pix := 0; pix < hw; pix++ {
				s += xd[base+pix]
			}
			od[i*c+ch] = s * inv
		}
	}
}

// Backward spreads each channel gradient uniformly over the plane.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	hw := h * w
	dx := tensor.New(n, c, h, w)
	dd, gd := dx.Data(), grad.Data()
	inv := 1 / float32(hw)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			g := gd[i*c+ch] * inv
			base := (i*c + ch) * hw
			for pix := 0; pix < hw; pix++ {
				dd[base+pix] = g
			}
		}
	}
	return dx
}
