package nn

import (
	"fmt"
	"math"

	"tbnet/internal/tensor"
)

// This file implements model surgery: deep-cloning layers (used for victim →
// branch initialization and for pruning-iteration snapshots/rollback) and
// physical channel pruning (used by TBNet's iterative two-branch pruning,
// Alg. 1 of the paper). Pruning is physical — tensors are rebuilt smaller —
// because the paper's hardware-efficiency results depend on real reductions
// in parameter and activation footprints.

// Cloner is implemented by layers that support deep copies.
type Cloner interface {
	CloneLayer() Layer
}

// CloneLayer returns a deep copy of the convolution (weights copied, caches
// dropped). Quantized int8 weights are immutable once attached, so clones
// share the underlying slices instead of copying them. The narrow pack is
// not carried over: the copy may be trained, and a pack would go stale.
func (c *Conv2D) CloneLayer() Layer {
	out := &Conv2D{
		InC: c.InC, OutC: c.OutC, KH: c.KH, KW: c.KW,
		Stride: c.Stride, Pad: c.Pad, name: c.name,
		qw: c.qw, qscale: c.qscale,
	}
	out.W = newParam(c.W.Name, c.W.Value.Clone(), c.W.Decay)
	if c.B != nil {
		out.B = newParam(c.B.Name, c.B.Value.Clone(), c.B.Decay)
	}
	return out
}

// CloneLayer returns a deep copy including running statistics, but not the
// inverse standard deviations Freeze derived: the copy derives its own.
func (b *BatchNorm2D) CloneLayer() Layer {
	out := &BatchNorm2D{
		C: b.C, Eps: b.Eps, Momentum: b.Momentum, name: b.name,
		Gamma:   newParam(b.Gamma.Name, b.Gamma.Value.Clone(), b.Gamma.Decay),
		Beta:    newParam(b.Beta.Name, b.Beta.Value.Clone(), b.Beta.Decay),
		RunMean: b.RunMean.Clone(),
		RunVar:  b.RunVar.Clone(),
	}
	return out
}

// CloneLayer returns a fresh ReLU.
func (r *ReLU) CloneLayer() Layer { return NewReLU(r.name) }

// CloneLayer returns a fresh max pool.
func (p *MaxPool2D) CloneLayer() Layer { return NewMaxPool2D(p.name, p.K) }

// CloneLayer returns a fresh global average pool.
func (p *GlobalAvgPool) CloneLayer() Layer { return NewGlobalAvgPool(p.name) }

// CloneLayer returns a deep copy of the dense layer (immutable int8 weights
// shared, not copied).
func (d *Dense) CloneLayer() Layer {
	return &Dense{
		In: d.In, Out: d.Out, name: d.name,
		W:  newParam(d.W.Name, d.W.Value.Clone(), d.W.Decay),
		B:  newParam(d.B.Name, d.B.Value.Clone(), d.B.Decay),
		qw: d.qw, qscale: d.qscale,
	}
}

// CloneOf clones any layer implementing Cloner and panics otherwise; all
// layers in this package implement it.
func CloneOf(l Layer) Layer {
	c, ok := l.(Cloner)
	if !ok {
		panic(fmt.Sprintf("nn: layer %s does not support cloning", l.Name()))
	}
	return c.CloneLayer()
}

// PruneOutput keeps only the listed output channels of the convolution.
func (c *Conv2D) PruneOutput(keep []int) {
	cols := c.InC * c.KH * c.KW
	nw := tensor.New(len(keep), cols)
	src, dst := c.W.Value.Data(), nw.Data()
	for i, ch := range keep {
		copy(dst[i*cols:(i+1)*cols], src[ch*cols:(ch+1)*cols])
	}
	c.W = newParam(c.W.Name, nw, c.W.Decay)
	if c.B != nil {
		nb := tensor.New(len(keep))
		for i, ch := range keep {
			nb.Data()[i] = c.B.Value.Data()[ch]
		}
		c.B = newParam(c.B.Name, nb, c.B.Decay)
	}
	c.OutC = len(keep)
	c.qw, c.qscale, c.narrow = nil, nil, nil // stale after surgery; re-quantize to re-arm
}

// PruneInput keeps only the listed input channels of the convolution.
func (c *Conv2D) PruneInput(keep []int) {
	kk := c.KH * c.KW
	oldCols := c.InC * kk
	newCols := len(keep) * kk
	nw := tensor.New(c.OutC, newCols)
	src, dst := c.W.Value.Data(), nw.Data()
	for o := 0; o < c.OutC; o++ {
		for i, ch := range keep {
			copy(dst[o*newCols+i*kk:o*newCols+(i+1)*kk], src[o*oldCols+ch*kk:o*oldCols+(ch+1)*kk])
		}
	}
	c.W = newParam(c.W.Name, nw, c.W.Decay)
	c.InC = len(keep)
	c.qw, c.qscale, c.narrow = nil, nil, nil // stale after surgery; re-quantize to re-arm
}

// Prune keeps only the listed channels of the batch-norm layer.
func (b *BatchNorm2D) Prune(keep []int) {
	sel := func(t *tensor.Tensor) *tensor.Tensor {
		out := tensor.New(len(keep))
		for i, ch := range keep {
			out.Data()[i] = t.Data()[ch]
		}
		return out
	}
	b.Gamma = newParam(b.Gamma.Name, sel(b.Gamma.Value), b.Gamma.Decay)
	b.Beta = newParam(b.Beta.Name, sel(b.Beta.Value), b.Beta.Decay)
	b.RunMean = sel(b.RunMean)
	b.RunVar = sel(b.RunVar)
	b.C = len(keep)
	b.invStd = nil
}

// PruneInput keeps only the rows of W corresponding to the kept input
// channels, where each channel contributes spatial consecutive input
// features (spatial == 1 for a head fed by global average pooling).
func (d *Dense) PruneInput(keep []int, spatial int) {
	newIn := len(keep) * spatial
	nw := tensor.New(newIn, d.Out)
	src, dst := d.W.Value.Data(), nw.Data()
	for i, ch := range keep {
		for s := 0; s < spatial; s++ {
			copy(dst[(i*spatial+s)*d.Out:(i*spatial+s+1)*d.Out],
				src[(ch*spatial+s)*d.Out:(ch*spatial+s+1)*d.Out])
		}
	}
	d.W = newParam(d.W.Name, nw, d.W.Decay)
	d.In = newIn
	d.qw, d.qscale = nil, nil // stale after surgery; re-quantize to re-arm
}

// Reinit re-randomizes the convolution's weights (He-normal) and zeroes its
// bias, used to build a fresh secure branch with the victim's architecture.
func (c *Conv2D) Reinit(rng *tensor.RNG) {
	std := 2.0 / float64(c.InC*c.KH*c.KW)
	rng.FillNormal(c.W.Value, 0, sqrtApprox(std))
	if c.B != nil {
		c.B.Value.Zero()
	}
	c.narrow = nil
}

// Reinit re-randomizes the dense layer's weights and zeroes its bias.
func (d *Dense) Reinit(rng *tensor.RNG) {
	rng.FillNormal(d.W.Value, 0, sqrtApprox(2.0/float64(d.In)))
	d.B.Value.Zero()
}

// Reinit restores the batch norm to its initial state (γ=1, β=0, fresh
// running statistics).
func (b *BatchNorm2D) Reinit(rng *tensor.RNG) {
	b.Gamma.Value.Fill(1)
	b.Beta.Value.Zero()
	b.RunMean.Zero()
	b.RunVar.Fill(1)
	b.invStd = nil
}

func sqrtApprox(x float64) float64 { return math.Sqrt(x) }

// Weighted is a layer whose weights are one [rows, cols] matrix with one
// output channel per row — Conv2D and DepthwiseConv2D. It is all that
// quantization, the int8 artifact and re-initialisation need of a stage's
// layers, so none of them has to know which kind of layer (or stage) it holds.
type Weighted interface {
	// Weight returns the [rows, cols] weight parameter.
	Weight() *Param
	// Bias returns the bias parameter, nil when the layer has none.
	Bias() *Param
	// SetInt8Weights arms the layer's int8 inference path with the
	// [rows, cols] quantized matrix and its per-row scales.
	SetInt8Weights(data []int8, scales []float32) error
	// Reinit re-randomizes the weights and zeroes the bias.
	Reinit(rng *tensor.RNG)
}

// Weight returns the [OutC, InC*KH*KW] weight parameter.
func (c *Conv2D) Weight() *Param { return c.W }

// Bias returns the bias parameter, nil when bias is disabled.
func (c *Conv2D) Bias() *Param { return c.B }

// Weight returns the [C, K*K] filter bank.
func (d *DepthwiseConv2D) Weight() *Param { return d.W }

// Bias returns nil: a depthwise convolution has no bias.
func (d *DepthwiseConv2D) Bias() *Param { return nil }
