package nn

import (
	"fmt"
	"math"

	"tbnet/internal/tensor"
)

// DepthwiseConv2D convolves each input channel with its own k×k filter,
// preserving the channel count — the spatial half of a depthwise-separable
// convolution (MobileNet-style). Weights are stored as a [C, k*k] matrix.
type DepthwiseConv2D struct {
	C           int
	K           int
	Stride, Pad int
	W           *Param // float32 filters; nil while the layer is int8 (qw)
	name        string
	lastInput   *tensor.Tensor
	lastOH      int
	lastOW      int

	// qw/qscale arm the int8 inference path (SetInt8Weights): the quantized
	// [C, K*K] filter bank and per-channel scales, shared by clones.
	qw     []int8
	qscale []float32
}

// NewDepthwiseConv2D creates a depthwise convolution with He-normal weights
// drawn from rng. A nil rng builds it without weights, for the artifact
// loader, which gives it float32 weights (SetWeights) or int8 ones
// (SetInt8Weights).
func NewDepthwiseConv2D(name string, c, k, stride, pad int, rng *tensor.RNG) *DepthwiseConv2D {
	d := &DepthwiseConv2D{C: c, K: k, Stride: stride, Pad: pad, name: name}
	if rng != nil {
		w := tensor.New(c, k*k)
		rng.FillNormal(w, 0, math.Sqrt(2.0/float64(k*k)))
		d.W = newParam(name+".weight", w, true)
	}
	return d
}

// Name returns the layer's diagnostic name.
func (d *DepthwiseConv2D) Name() string { return d.name }

// Params returns the float32 filter bank (none when the layer is int8).
func (d *DepthwiseConv2D) Params() []*Param { return params(d.W) }

// OutShape maps [N,C,H,W] through the spatial window.
func (d *DepthwiseConv2D) OutShape(in []int) []int {
	return []int{in[0], in[1],
		tensor.ConvOutDim(in[2], d.K, d.Stride, d.Pad),
		tensor.ConvOutDim(in[3], d.K, d.Stride, d.Pad)}
}

// Forward applies each channel's filter to its plane. In eval mode no
// backward state is retained, so the input tensor is not pinned past the
// call.
func (d *DepthwiseConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	oh := tensor.ConvOutDim(x.Dim(2), d.K, d.Stride, d.Pad)
	ow := tensor.ConvOutDim(x.Dim(3), d.K, d.Stride, d.Pad)
	out := tensor.New(n, d.C, oh, ow)
	d.ForwardInto(out, x, nil)
	if train {
		d.lastInput, d.lastOH, d.lastOW = x, oh, ow
	} else {
		d.lastInput = nil
	}
	return out
}

// ForwardInto is the eval-mode inference path: the depthwise convolution of
// x written into dst (shaped per OutShape), one tensor.DepthwiseFused per
// sample. The float32 path draws the kernel's zero-bordered plane from the
// arena's per-worker scratch (ColScratch; a fresh buffer when the arena is
// nil), so a warm arena makes it allocation-free; the int8 path draws its
// quantized-input scratch from the arena (creating a private one when nil).
// No state is retained.
func (d *DepthwiseConv2D) ForwardInto(dst, x *tensor.Tensor, a *Arena) {
	d.forwardInto(dst, x, a, nil)
}

// ForwardIntoBN is ForwardInto followed by bn's eval-mode ForwardInto and,
// when relu is set, ReLU.ForwardInto — bit for bit, in either precision —
// with the two element-wise passes applied by the convolution's own kernel
// before each output is stored (see Conv2D.ForwardIntoBN).
func (d *DepthwiseConv2D) ForwardIntoBN(dst, x *tensor.Tensor, a *Arena, bn *BatchNorm2D, relu bool) {
	if bn.C != d.C {
		panic(fmt.Sprintf("nn: %s normalizes %d channels, %s produces %d", bn.name, bn.C, d.name, d.C))
	}
	if a == nil {
		a = NewArena()
	}
	d.forwardInto(dst, x, a, bn.epilogue(a, relu))
}

func (d *DepthwiseConv2D) forwardInto(dst, x *tensor.Tensor, a *Arena, ep *tensor.Epilogue) {
	if x.Dim(1) != d.C {
		panic(fmt.Sprintf("nn: %s expects %d channels, got %d", d.name, d.C, x.Dim(1)))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutDim(h, d.K, d.Stride, d.Pad)
	ow := tensor.ConvOutDim(w, d.K, d.Stride, d.Pad)
	if dst.Dim(0) != n || dst.Size() != n*d.C*oh*ow {
		panic(fmt.Sprintf("nn: %s destination %v for output [%d,%d,%d,%d]",
			d.name, dst.Shape(), n, d.C, oh, ow))
	}
	if d.qw != nil {
		if a == nil {
			a = NewArena()
		}
		d.forwardIntoI8(dst, x, a, ep)
		return
	}
	g := tensor.ConvGeom{C: d.C, H: h, W: w, KH: d.K, KW: d.K, Stride: d.Stride, Pad: d.Pad}
	sampleIn, sampleOut, planeLen := d.C*h*w, d.C*oh*ow, tensor.DepthwiseScratchLen(g)
	xd, od, wd := x.Data(), dst.Data(), d.W.Value.Data()
	grain := tensor.Grain(d.C * d.K * d.K * oh * ow)
	if !fansOut(n, grain) {
		// No closure below the grain, so nothing escapes to the heap.
		for i := 0; i < n; i++ {
			tensor.DepthwiseFused(od[i*sampleOut:(i+1)*sampleOut], wd, xd[i*sampleIn:(i+1)*sampleIn],
				g, floatScratch(a, 0, planeLen), ep)
		}
		return
	}
	parallelFor(n, grain, func(worker, i int) {
		tensor.DepthwiseFused(od[i*sampleOut:(i+1)*sampleOut], wd, xd[i*sampleIn:(i+1)*sampleIn],
			g, floatScratch(a, worker, planeLen), ep)
	})
}

// Backward accumulates filter gradients and returns the input gradient.
func (d *DepthwiseConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := d.lastInput
	if x == nil {
		panic("nn: DepthwiseConv2D.Backward before Forward")
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := d.lastOH, d.lastOW
	dx := tensor.New(n, d.C, h, w)
	xd, gd, dd := x.Data(), grad.Data(), dx.Data()
	wd, wg := d.Weight().Value.Data(), d.W.Gradient().Data()
	kk := d.K * d.K
	// Serial over samples: filter gradients are shared across the batch.
	for i := 0; i < n; i++ {
		for ch := 0; ch < d.C; ch++ {
			plane := xd[(i*d.C+ch)*h*w : (i*d.C+ch+1)*h*w]
			dplane := dd[(i*d.C+ch)*h*w : (i*d.C+ch+1)*h*w]
			g := gd[(i*d.C+ch)*oh*ow : (i*d.C+ch+1)*oh*ow]
			filt := wd[ch*kk : (ch+1)*kk]
			fg := wg[ch*kk : (ch+1)*kk]
			gi := 0
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gv := g[gi]
					gi++
					if gv == 0 {
						continue
					}
					for ky := 0; ky < d.K; ky++ {
						iy := oy*d.Stride + ky - d.Pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < d.K; kx++ {
							ix := ox*d.Stride + kx - d.Pad
							if ix < 0 || ix >= w {
								continue
							}
							fg[ky*d.K+kx] += gv * plane[iy*w+ix]
							dplane[iy*w+ix] += gv * filt[ky*d.K+kx]
						}
					}
				}
			}
		}
	}
	return dx
}

// CloneLayer returns a deep copy (immutable int8 weights shared, not
// copied).
func (d *DepthwiseConv2D) CloneLayer() Layer {
	out := d.cloneBare().(*DepthwiseConv2D)
	out.W, out.qw, out.qscale = d.W.clone(), d.qw, d.qscale
	return out
}

// cloneBare copies the depthwise convolution's geometry, not its filters.
func (d *DepthwiseConv2D) cloneBare() Layer {
	return &DepthwiseConv2D{C: d.C, K: d.K, Stride: d.Stride, Pad: d.Pad, name: d.name}
}

// PruneChannels keeps only the listed channels (the layer's input and output
// channel sets are the same).
func (d *DepthwiseConv2D) PruneChannels(keep []int) {
	kk := d.K * d.K
	nw := tensor.New(len(keep), kk)
	src := d.Weight().Value.Data()
	for i, ch := range keep {
		copy(nw.Data()[i*kk:(i+1)*kk], src[ch*kk:(ch+1)*kk])
	}
	d.W = newParam(d.W.Name, nw, d.W.Decay)
	d.C = len(keep)
}

// Reinit re-randomizes the filters.
func (d *DepthwiseConv2D) Reinit(rng *tensor.RNG) {
	rng.FillNormal(d.Weight().Value, 0, math.Sqrt(2.0/float64(d.K*d.K)))
}
