package nn

import (
	"fmt"

	"tbnet/internal/tensor"
)

// This file is the int8 inference path. A layer is "armed" for int8 by
// attaching offline-quantized weights (SetInt8Weights), which replace its
// float32 ones: a layer holds one layout of its weights (Int8Weights reads
// them back), and SetWeights is the way back. Its ForwardInto then routes
// through the int8 kernels: activations are quantized dynamically per
// sample with a symmetric per-tensor scale, the convolution/matmul runs in
// exact int8×int8→int32 arithmetic, and the result is requantized back to
// float32 at the layer boundary (acc · s_w · s_x, plus the float32 bias).
// Batch norm, activations, and pooling always run in float32 — they are a
// negligible share of both compute and footprint, and keeping them float
// means the int8 path needs no BN folding or retraining.

// quantizeSample computes the dynamic per-tensor scale for one sample and
// writes its int8 image into dst.
func quantizeSample(sample []float32, dst []int8) (scale float32) {
	scale = tensor.QuantScale(tensor.MaxAbs(sample))
	tensor.QuantizeI8(sample, scale, dst)
	return scale
}

// SetInt8Weights arms the convolution with quantized weights: data is the
// [OutC, InC*KH*KW] channel-major int8 matrix as the artifact stores it,
// scales the per-output-channel weight scales. tensor.PackI8Weights lays
// the rows out for the int8 kernel in one pass, permuted to the
// (ky, kx, channel) order the HWC patch lowering produces: row-major below
// AMX (for a 1×1 kernel, where the two orders coincide, data itself), in
// tile blocks at AMX. The layer keeps only that packed form; Int8Weights
// reads the rows back out of it. int8×int8→int32 accumulation is exact, so
// reordering the shared dimension of both GEMM operands leaves every
// accumulator unchanged. The layer drops its float32 weights and narrow
// pack (bias stays float32).
func (c *Conv2D) SetInt8Weights(data []int8, scales []float32) error {
	kk := c.KH * c.KW
	if len(data) != c.OutC*c.InC*kk || len(scales) != c.OutC {
		return fmt.Errorf("nn: %s int8 weights [%d]/scales [%d] for a %dx%d conv",
			c.name, len(data), len(scales), c.OutC, c.InC*kk)
	}
	c.qw, c.qscale = tensor.PackI8Weights(data, c.OutC, c.InC*kk, kk), scales
	c.W, c.narrow = nil, nil
	return nil
}

// Int8Weights returns what SetInt8Weights armed the convolution with, the
// rows read back out of the packed form (tensor.UnpackI8Weights); nil, nil
// on a float32 layer. The caller must not modify either.
func (c *Conv2D) Int8Weights() ([]int8, []float32) {
	return tensor.UnpackI8Weights(c.qw, c.KH*c.KW), c.qscale
}

// Int8 reports whether the convolution is armed with quantized weights.
func (c *Conv2D) Int8() bool { return c.qw != nil }

// forwardIntoI8 is the quantized twin of forwardInto: HWC quantization and
// patch lowering in int8, the blocked int8 GEMM, then per-channel
// requantization with the bias and the epilogue (nil for none) fused in.
func (c *Conv2D) forwardIntoI8(dst, x *tensor.Tensor, a *Arena, ep *tensor.Epilogue) {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutDim(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(w, c.KW, c.Stride, c.Pad)
	hw := oh * ow
	xd, od := x.Data(), dst.Data()
	var bd []float32
	if c.B != nil {
		bd = c.B.Value.Data()
	}
	grain := tensor.Grain(c.OutC * c.InC * c.KH * c.KW * hw)
	switch {
	case n == 1:
		// Single sample: no sample-level parallelism, so the GEMM itself may
		// cross the pool (mirrors the float32 path). Calling the sample body
		// directly — not through a closure — keeps this branch and the next
		// allocation-free with a warm arena.
		c.i8Sample(a, 0, 0, h, w, hw, xd, od, bd, ep, tensor.GemmI8PackedParallel)
	case !fansOut(n, grain):
		for i := 0; i < n; i++ {
			c.i8Sample(a, 0, i, h, w, hw, xd, od, bd, ep, tensor.GemmI8PackedSerial)
		}
	default:
		parallelFor(n, grain, func(worker, i int) {
			c.i8Sample(a, worker, i, h, w, hw, xd, od, bd, ep, tensor.GemmI8PackedSerial)
		})
	}
}

// i8Sample runs sample i of the quantized convolution on one worker's arena
// lanes: the dynamic per-sample scale, one f32 CHW → int8 HWC quantization
// pass into a plane that carries the padding as a zero border, patch rows
// copied out of that plane (skipped for a pointwise conv, whose borderless
// plane already is the patch matrix), the int8 GEMM against the
// (ky, kx, channel)-ordered weights, and per-channel requantization with the
// bias and the epilogue fused in (tensor.RequantizeRows: one pass per row).
func (c *Conv2D) i8Sample(a *Arena, worker, i, h, w, hw int, xd, od, bd []float32, ep *tensor.Epilogue,
	gemm func(dst []int32, w *tensor.I8Weights, b []int8, n int)) {
	colRows := c.InC * c.KH * c.KW
	sampleIn := c.InC * h * w
	sampleOut := c.OutC * hw
	sample := xd[i*sampleIn : (i+1)*sampleIn]
	sx := tensor.QuantScale(tensor.MaxAbs(sample))
	img := a.I8Buf(worker, tensor.I8PlaneLen(c.InC, h, w, c.Pad))
	tensor.QuantizeI8HWC(sample, c.InC, h, w, c.Pad, sx, img)
	patches := img
	if !c.pointwise() {
		patches = a.I8Cols(worker, colRows*hw)
		tensor.Im2RowI8HWC(img, c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad, patches)
	}
	acc := a.I32Buf(worker, sampleOut)
	gemm(acc, c.qw, patches, hw)
	tensor.RequantizeRows(od[i*sampleOut:(i+1)*sampleOut], acc, hw, c.qscale, sx, bd, ep)
}

// SetInt8Weights arms the depthwise convolution: data is the [C, K*K] int8
// filter bank, scales the per-channel weight scales. The layer drops its
// float32 filters.
func (d *DepthwiseConv2D) SetInt8Weights(data []int8, scales []float32) error {
	if len(data) != d.C*d.K*d.K || len(scales) != d.C {
		return fmt.Errorf("nn: %s int8 weights [%d]/scales [%d] for a %dx%d depthwise conv",
			d.name, len(data), len(scales), d.C, d.K*d.K)
	}
	d.qw, d.qscale, d.W = data, scales, nil
	return nil
}

// Int8Weights returns what SetInt8Weights armed the depthwise convolution
// with, as given; nil, nil on a float32 layer. The caller must not modify
// either.
func (d *DepthwiseConv2D) Int8Weights() ([]int8, []float32) { return d.qw, d.qscale }

// forwardIntoI8 runs the depthwise convolution in int32 accumulation over
// the quantized sample, requantizing per channel and then applying ep (when
// set) to the channel. Scalar per-tap loops — the window is tiny (k×k), so
// there is nothing for a GEMM to block.
func (d *DepthwiseConv2D) forwardIntoI8(dst, x *tensor.Tensor, a *Arena, ep *tensor.Epilogue) {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutDim(h, d.K, d.Stride, d.Pad)
	ow := tensor.ConvOutDim(w, d.K, d.Stride, d.Pad)
	xd, od := x.Data(), dst.Data()
	grain := tensor.Grain(d.C * d.K * d.K * oh * ow)
	if !fansOut(n, grain) {
		// No closure below the grain, so nothing escapes to the heap.
		for i := 0; i < n; i++ {
			d.i8Sample(a, 0, i, h, w, oh, ow, xd, od, ep)
		}
		return
	}
	parallelFor(n, grain, func(worker, i int) {
		d.i8Sample(a, worker, i, h, w, oh, ow, xd, od, ep)
	})
}

// i8Sample runs sample i of the quantized depthwise convolution on one
// worker's arena lanes.
func (d *DepthwiseConv2D) i8Sample(a *Arena, worker, i, h, w, oh, ow int, xd, od []float32, ep *tensor.Epilogue) {
	sampleIn := d.C * h * w
	kk := d.K * d.K
	qin := a.I8Buf(worker, sampleIn)
	sx := quantizeSample(xd[i*sampleIn:(i+1)*sampleIn], qin)
	for ch := 0; ch < d.C; ch++ {
		plane := qin[ch*h*w : (ch+1)*h*w]
		out := od[(i*d.C+ch)*oh*ow : (i*d.C+ch+1)*oh*ow]
		filt := d.qw[ch*kk : (ch+1)*kk]
		f := d.qscale[ch] * sx
		di := 0
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s int32
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
						s += int32(filt[ky*d.K+kx]) * int32(plane[iy*w+ix])
					}
				}
				out[di] = float32(s) * f
				di++
			}
		}
		if ep != nil {
			ep.ApplyRow(out, ch)
		}
	}
}

// SetInt8Weights arms the dense layer: data is the [Out, In] int8 matrix
// (note: transposed relative to the float32 [In, Out] storage, so each
// output's weights form one contiguous dot-product row), packed once for the
// int8 kernel (tensor.PackI8Weights), scales the per-output scales. The
// layer drops its float32 weights.
func (d *Dense) SetInt8Weights(data []int8, scales []float32) error {
	if len(data) != d.In*d.Out || len(scales) != d.Out {
		return fmt.Errorf("nn: %s int8 weights [%d]/scales [%d] for a %dx%d dense layer",
			d.name, len(data), len(scales), d.Out, d.In)
	}
	d.qw, d.qscale, d.W = tensor.PackI8Weights(data, d.Out, d.In, 1), scales, nil
	return nil
}

// Int8Weights returns the [Out, In] matrix and scales SetInt8Weights armed
// the dense layer with, the matrix read back out of the packed form; nil,
// nil on a float32 layer. The caller must not modify either.
func (d *Dense) Int8Weights() ([]int8, []float32) { return tensor.UnpackI8Weights(d.qw, 1), d.qscale }

// Int8 reports whether the dense layer is armed with quantized weights.
func (d *Dense) Int8() bool { return d.qw != nil }

// forwardIntoI8 quantizes each input row with its own dynamic scale, runs
// one int8 GEMM for the whole batch — the packed weights against the input
// rows, so acc is [Out, n] — and requantizes with the bias fused in.
func (d *Dense) forwardIntoI8(dst, x *tensor.Tensor, a *Arena) {
	n := x.Dim(0)
	xd, od, bd := x.Data(), dst.Data(), d.B.Value.Data()
	qx, sx, acc := a.DenseRows(n, d.In, d.Out)
	for i := 0; i < n; i++ {
		sx[i] = quantizeSample(xd[i*d.In:(i+1)*d.In], qx[i*d.In:(i+1)*d.In])
	}
	tensor.GemmI8PackedParallel(acc, d.qw, qx, n)
	for i := 0; i < n; i++ {
		out := od[i*d.Out : (i+1)*d.Out]
		f := sx[i]
		for o := range out {
			out[o] = float32(acc[o*n+i])*d.qscale[o]*f + bd[o]
		}
	}
}
