package nn

import (
	"fmt"
	"math"

	"tbnet/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs, computed per sample as one
// matrix product of the [OutC, InC*KH*KW] weight matrix with the sample's
// column matrix. The forward pass never builds that matrix: the GEMM packs
// its panels straight from the image (tensor.ConvGemmFusedParallel); only
// Backward, whose dW needs the matrix itself, lowers with Im2Col. Bias is
// optional (models that follow the convolution with batch normalization keep
// it disabled, matching the paper's architectures).
type Conv2D struct {
	InC, OutC      int
	KH, KW         int
	Stride, Pad    int
	W              *Param
	B              *Param // nil when bias is disabled
	name           string
	lastInput      *tensor.Tensor
	lastOH, lastOW int

	// qw/qscale arm the int8 inference path (SetInt8Weights): the quantized
	// [OutC, KH*KW*InC] weights — each row permuted to (ky, kx, channel)
	// order, the order Im2RowI8HWC lays patches out in, and packed for the
	// int8 kernel — and their per-output-channel scales. Both are immutable
	// once attached, so clones share them.
	qw     *tensor.I8Weights
	qscale []float32

	// narrow is the float32 weights packed for the narrow kernel
	// (PackNarrow), set once when a deployment plans the convolution's
	// output narrow enough to run it, nil otherwise. Only the inference
	// path (ForwardInto, ForwardIntoBN) reads it. Like qw it is immutable
	// and shared by every session of the deployment; clones, pruning and
	// re-initialisation drop it, so a copy that trains never reads stale
	// weights.
	narrow *tensor.NarrowWeights

	// bwd is per-worker training scratch, lazily sized on the first
	// Backward and reused across steps. It is never cloned: replicas and
	// snapshots start with fresh scratch.
	bwd []convBwd
	// wT is the transposed weight matrix reused across Backward calls.
	wT *tensor.Tensor
}

// convBwd is one worker's backward scratch: the im2col columns, their
// transpose, the per-sample weight-gradient product, the worker's
// weight-gradient partial sum, and the column gradient.
type convBwd struct {
	cols, colsT, dwi, dwiAcc, dcols []float32
	used                            bool
}

// NewConv2D creates a convolution with He-normal initialized weights drawn
// from rng. A nil rng leaves the weights zero, for a caller (the artifact
// loader) that overwrites them.
func NewConv2D(name string, inC, outC, k, stride, pad int, bias bool, rng *tensor.RNG) *Conv2D {
	c := &Conv2D{InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad, name: name}
	w := tensor.New(outC, inC*k*k)
	if rng != nil {
		rng.FillNormal(w, 0, math.Sqrt(2.0/float64(inC*k*k)))
	}
	c.W = newParam(name+".weight", w, true)
	if bias {
		c.B = newParam(name+".bias", tensor.New(outC), true)
	}
	return c
}

// Name returns the layer's diagnostic name.
func (c *Conv2D) Name() string { return c.name }

// Params returns weight (and bias when present).
func (c *Conv2D) Params() []*Param {
	if c.B != nil {
		return []*Param{c.W, c.B}
	}
	return []*Param{c.W}
}

// OutShape maps [N,C,H,W] to the convolution output shape.
func (c *Conv2D) OutShape(in []int) []int {
	oh := tensor.ConvOutDim(in[2], c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(in[3], c.KW, c.Stride, c.Pad)
	return []int{in[0], c.OutC, oh, ow}
}

// Forward computes the convolution for x of shape [N, InC, H, W]. In eval
// mode (train == false) no backward state is retained, so the input tensor
// is not pinned past the call.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	oh := tensor.ConvOutDim(x.Dim(2), c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(x.Dim(3), c.KW, c.Stride, c.Pad)
	out := tensor.New(n, c.OutC, oh, ow)
	c.forwardInto(out, x, nil, nil, nil)
	if train {
		c.lastInput, c.lastOH, c.lastOW = x, oh, ow
	} else {
		c.lastInput = nil
	}
	return out
}

// ForwardInto is the eval-mode inference path: the convolution of x written
// into dst (shaped per OutShape) using the arena's pooled scratch. No state
// is retained.
func (c *Conv2D) ForwardInto(dst, x *tensor.Tensor, a *Arena) {
	c.forwardInto(dst, x, a, nil, c.narrow)
}

// ForwardIntoBN is ForwardInto followed by bn's eval-mode ForwardInto and,
// when relu is set, ReLU.ForwardInto — bit for bit, in either precision —
// with the two element-wise passes applied by the convolution's own kernel
// as each output tile is produced. bn's parameters are read at call time,
// except the inverse standard deviations a deployment derived once
// (BatchNorm2D.Freeze); what the call itself derives does not outlive it.
func (c *Conv2D) ForwardIntoBN(dst, x *tensor.Tensor, a *Arena, bn *BatchNorm2D, relu bool) {
	if bn.C != c.OutC {
		panic(fmt.Sprintf("nn: %s normalizes %d channels, %s produces %d", bn.name, bn.C, c.name, c.OutC))
	}
	if a == nil {
		a = NewArena()
	}
	c.forwardInto(dst, x, a, bn.epilogue(a, relu), c.narrow)
}

// PackNarrow packs the float32 weights for the narrow kernel
// (tensor.PackNarrow) when the convolution of an input of shape in is a
// product that kernel runs (tensor.NarrowConv) and no pack is held yet. A
// deployment calls it once, for the shape it planned; nothing else writes
// the pack, so sessions sharing the layer only ever read it. An int8-armed
// convolution has no float32 product and is left alone.
func (c *Conv2D) PackNarrow(in []int) {
	g := tensor.ConvGeom{C: c.InC, H: in[2], W: in[3], KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad}
	if c.narrow == nil && c.qw == nil && tensor.NarrowConv(g) {
		c.narrow = tensor.PackNarrow(c.W.Value.Data(), c.OutC, c.InC*c.KH*c.KW)
	}
}

// forwardInto computes the convolution; nw is the narrow pack the product
// may run against (nil on the training path, which never reads it).
func (c *Conv2D) forwardInto(dst, x *tensor.Tensor, a *Arena, ep *tensor.Epilogue, nw *tensor.NarrowWeights) {
	if x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s expects %d input channels, got %d", c.name, c.InC, x.Dim(1)))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutDim(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(w, c.KW, c.Stride, c.Pad)
	if dst.Dim(0) != n || dst.Dim(1) != c.OutC || dst.Size() != n*c.OutC*oh*ow {
		panic(fmt.Sprintf("nn: %s destination %v for output [%d,%d,%d,%d]",
			c.name, dst.Shape(), n, c.OutC, oh, ow))
	}
	if c.qw != nil {
		if a == nil {
			a = NewArena()
		}
		c.forwardIntoI8(dst, x, a, ep)
		return
	}
	g := tensor.ConvGeom{C: c.InC, H: h, W: w, KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad}
	sampleIn := c.InC * h * w
	sampleOut := c.OutC * oh * ow
	xd, od, wd := x.Data(), dst.Data(), c.W.Value.Data()

	// The GEMM finishes its own tiles with the epilogue unless a bias has to
	// land between the product and the normalization.
	fused := ep
	if c.B != nil {
		fused = nil
	}
	scratchLen := tensor.ConvScratchLen(g)
	if n == 1 {
		// A single sample has no sample-level parallelism; the matmul itself
		// goes through the worker pool when it is big enough to pay for the
		// wake-up, and otherwise runs here without allocating.
		tensor.ConvGemmFusedParallel(od[:sampleOut], wd, nw, xd[:sampleIn], c.OutC, g, floatScratch(a, 0, scratchLen), fused)
	} else {
		parallelFor(n, func(worker, i int) {
			tensor.ConvGemmFusedSerial(od[i*sampleOut:(i+1)*sampleOut], wd, nw, xd[i*sampleIn:(i+1)*sampleIn],
				c.OutC, g, floatScratch(a, worker, scratchLen), fused)
		})
	}
	if c.B != nil {
		bd := c.B.Value.Data()
		hw := oh * ow
		for i := 0; i < n; i++ {
			for ch := 0; ch < c.OutC; ch++ {
				base := (i*c.OutC + ch) * hw
				b := bd[ch]
				for p := 0; p < hw; p++ {
					od[base+p] += b
				}
				if ep != nil {
					ep.ApplyRow(od[base:base+hw], ch)
				}
			}
		}
	}
}

// pointwise reports whether the convolution is 1×1 at stride 1 without
// padding. Its int8 patch matrix is then the HWC image itself, so that path
// lowers nothing (the float32 kernel makes the same observation for itself).
func (c *Conv2D) pointwise() bool {
	return c.KH == 1 && c.KW == 1 && c.Stride == 1 && c.Pad == 0
}

// floatScratch returns the n floats a float32 convolution kernel needs beside
// one sample: the worker's arena scratch, or a fresh buffer without an arena.
func floatScratch(a *Arena, worker, n int) []float32 {
	if a != nil {
		return a.ColScratch(worker, n)
	}
	return make([]float32, n)
}

// Backward accumulates dW (and dB) and returns dX. It recomputes im2col per
// sample rather than caching the column matrices, trading compute for
// memory; the per-sample temporaries live in reused per-worker scratch, so
// steady-state training steps stop churning the allocator.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	if x == nil {
		panic("nn: Conv2D.Backward before training-mode Forward")
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.lastOH, c.lastOW
	colRows := c.InC * c.KH * c.KW
	ohw := oh * ow
	sampleIn := c.InC * h * w
	sampleOut := c.OutC * oh * ow
	dx := tensor.New(n, c.InC, h, w)
	if c.wT == nil || c.wT.Dim(0) != colRows || c.wT.Dim(1) != c.OutC {
		c.wT = tensor.New(colRows, c.OutC)
	}
	tensor.TransposeInto(c.wT, c.W.Value) // [colRows, OutC]
	wTd := c.wT.Data()
	if len(c.bwd) == 0 {
		c.bwd = make([]convBwd, tensor.Workers())
	}
	xd, gd, dxd := x.Data(), grad.Data(), dx.Data()

	parallelFor(n, func(worker, i int) {
		ws := &c.bwd[worker]
		ws.ensure(colRows, ohw, c.OutC)
		ws.used = true
		tensor.Im2Col(xd[i*sampleIn:(i+1)*sampleIn], c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad, ws.cols)
		tensor.TransposeSerial(ws.colsT, ws.cols, colRows, ohw)
		dy := gd[i*sampleOut : (i+1)*sampleOut]

		// dW_i = dy @ colsᵀ, accumulated into the worker's partial sum.
		tensor.GemmSerial(ws.dwi, dy, ws.colsT, c.OutC, colRows, ohw)
		for j, v := range ws.dwi {
			ws.dwiAcc[j] += v
		}
		// dcols = Wᵀ @ dy ; dx_i = col2im(dcols)
		tensor.GemmSerial(ws.dcols, wTd, dy, colRows, ohw, c.OutC)
		tensor.Col2Im(ws.dcols, c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad, dxd[i*sampleIn:(i+1)*sampleIn])
	})

	// Fold the per-worker weight-gradient partials into the shared
	// accumulator, serially and in worker order (deterministic, no mutex).
	wg := c.W.Gradient().Data()
	for wi := range c.bwd {
		ws := &c.bwd[wi]
		if !ws.used {
			continue
		}
		for j, v := range ws.dwiAcc {
			wg[j] += v
		}
		ws.used = false
	}
	if c.B != nil {
		bg := c.B.Gradient().Data()
		for i := 0; i < n; i++ {
			for ch := 0; ch < c.OutC; ch++ {
				base := (i*c.OutC + ch) * ohw
				var s float32
				for p := 0; p < ohw; p++ {
					s += gd[base+p]
				}
				bg[ch] += s
			}
		}
	}
	return dx
}

// ensure grows the worker scratch to the layer's current geometry and zeroes
// the weight-gradient partial for a fresh accumulation.
func (ws *convBwd) ensure(colRows, ohw, outC int) {
	if cap(ws.cols) < colRows*ohw {
		ws.cols = make([]float32, colRows*ohw)
		ws.colsT = make([]float32, colRows*ohw)
		ws.dcols = make([]float32, colRows*ohw)
	}
	ws.cols = ws.cols[:colRows*ohw]
	ws.colsT = ws.colsT[:colRows*ohw]
	ws.dcols = ws.dcols[:colRows*ohw]
	if cap(ws.dwi) < outC*colRows {
		ws.dwi = make([]float32, outC*colRows)
		ws.dwiAcc = make([]float32, outC*colRows)
	}
	ws.dwi = ws.dwi[:outC*colRows]
	ws.dwiAcc = ws.dwiAcc[:outC*colRows]
	if !ws.used {
		for j := range ws.dwiAcc {
			ws.dwiAcc[j] = 0
		}
	}
}
