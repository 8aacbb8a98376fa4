package nn

import (
	"fmt"
	"math"

	"tbnet/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW tensor over the batch and
// spatial dimensions. The per-channel scale γ (Gamma) is the signal TBNet's
// sparsity regularization and composite-weight pruning operate on.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64 // running-stat update rate
	Gamma    *Param
	Beta     *Param
	RunMean  *tensor.Tensor
	RunVar   *tensor.Tensor
	name     string

	// Forward caches for Backward.
	lastXHat *tensor.Tensor
	lastStd  []float64 // per-channel sqrt(var+eps) of the last training batch
	lastX    *tensor.Tensor
	lastMean []float64

	// invStd is float32(1/sqrt(RunVar+Eps)) per channel, derived once by
	// Freeze when a deployment plans the layer, nil otherwise. Only the
	// fused inference epilogue reads it; training and undeployed layers
	// derive the values on every call.
	invStd []float32
}

// NewBatchNorm2D creates a batch-norm layer with γ=1, β=0.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	g := tensor.New(c)
	g.Fill(1)
	return &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:   newParam(name+".gamma", g, false),
		Beta:    newParam(name+".beta", tensor.New(c), false),
		RunMean: tensor.New(c),
		RunVar:  onesTensor(c),
		name:    name,
	}
}

func onesTensor(n int) *tensor.Tensor {
	t := tensor.New(n)
	t.Fill(1)
	return t
}

// Name returns the layer's diagnostic name.
func (b *BatchNorm2D) Name() string { return b.name }

// Params returns γ and β.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// OutShape is the identity.
func (b *BatchNorm2D) OutShape(in []int) []int { return in }

// Forward normalizes x. In training mode it uses batch statistics and updates
// the running estimates; in eval mode it uses the running estimates and
// drops any cached backward state, so no tensors stay pinned between
// requests.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dim(1) != b.C {
		panic(fmt.Sprintf("nn: %s expects %d channels, got %d", b.name, b.C, x.Dim(1)))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	hw := h * w
	m := float64(n * hw)
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	gd, bd := b.Gamma.Value.Data(), b.Beta.Value.Data()

	if !train {
		b.lastXHat, b.lastStd, b.lastX, b.lastMean = nil, nil, nil, nil
		b.evalInto(od, xd, n, hw)
		return out
	}

	xhat := tensor.New(x.Shape()...)
	xh := xhat.Data()
	means := make([]float64, b.C)
	stds := make([]float64, b.C)
	rm, rv := b.RunMean.Data(), b.RunVar.Data()
	for ch := 0; ch < b.C; ch++ {
		var sum float64
		for i := 0; i < n; i++ {
			base := (i*b.C + ch) * hw
			for p := 0; p < hw; p++ {
				sum += float64(xd[base+p])
			}
		}
		mean := sum / m
		var vs float64
		for i := 0; i < n; i++ {
			base := (i*b.C + ch) * hw
			for p := 0; p < hw; p++ {
				d := float64(xd[base+p]) - mean
				vs += d * d
			}
		}
		variance := vs / m
		std := math.Sqrt(variance + b.Eps)
		means[ch], stds[ch] = mean, std
		rm[ch] = float32((1-b.Momentum)*float64(rm[ch]) + b.Momentum*mean)
		rv[ch] = float32((1-b.Momentum)*float64(rv[ch]) + b.Momentum*variance)
		g, bt := gd[ch], bd[ch]
		invStd := float32(1 / std)
		mu32 := float32(mean)
		for i := 0; i < n; i++ {
			base := (i*b.C + ch) * hw
			for p := 0; p < hw; p++ {
				v := (xd[base+p] - mu32) * invStd
				xh[base+p] = v
				od[base+p] = g*v + bt
			}
		}
	}
	b.lastXHat, b.lastStd, b.lastX, b.lastMean = xhat, stds, x, means
	return out
}

// evalInto applies the running-statistics normalization; od may alias xd.
func (b *BatchNorm2D) evalInto(od, xd []float32, n, hw int) {
	gd, bd := b.Gamma.Value.Data(), b.Beta.Value.Data()
	rm, rv := b.RunMean.Data(), b.RunVar.Data()
	for ch := 0; ch < b.C; ch++ {
		invStd := float32(1 / math.Sqrt(float64(rv[ch])+b.Eps))
		g, bt, mu := gd[ch], bd[ch], rm[ch]
		for i := 0; i < n; i++ {
			base := (i*b.C + ch) * hw
			for p := 0; p < hw; p++ {
				od[base+p] = g*(xd[base+p]-mu)*invStd + bt
			}
		}
	}
}

// Freeze derives the inverse standard deviations the inference epilogue
// reads, with evalInto's expression, once: a deployment calls it for every
// norm of a model it plans, and a deployed model's statistics never change
// after. A second call keeps the first derivation, so sessions sharing the
// layer only ever read it.
func (b *BatchNorm2D) Freeze() {
	if b.invStd == nil {
		b.invStd = b.deriveInvStd(make([]float32, b.C))
	}
}

// deriveInvStd writes evalInto's per-channel inverse standard deviation into
// dst and returns it.
func (b *BatchNorm2D) deriveInvStd(dst []float32) []float32 {
	for ch, rv := range b.RunVar.Data() {
		dst[ch] = float32(1 / math.Sqrt(float64(rv)+b.Eps))
	}
	return dst
}

// epilogue returns evalInto (followed by ReLU.ForwardInto when relu is set)
// as a GEMM epilogue over the layer's channels, for a convolution to apply
// while its output tiles are still in registers. It reads the live
// parameters and running statistics on every call, and the inverse
// standard deviations from Freeze when a deployment derived them, else
// derives them into the arena. The result lives in the arena and is valid
// until the arena's next fused call.
func (b *BatchNorm2D) epilogue(a *Arena, relu bool) *tensor.Epilogue {
	inv := b.invStd
	if inv == nil {
		if cap(a.invStd) < b.C {
			a.invStd = make([]float32, b.C)
		}
		inv = b.deriveInvStd(a.invStd[:b.C])
	}
	a.ep = tensor.Epilogue{
		Mean: b.RunMean.Data(), Gamma: b.Gamma.Value.Data(),
		InvStd: inv, Beta: b.Beta.Value.Data(), ReLU: relu,
	}
	return &a.ep
}

// Backward implements the standard batch-norm gradient.
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.lastXHat == nil {
		panic("nn: BatchNorm2D.Backward before training-mode Forward")
	}
	x := b.lastX
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	hw := h * w
	m := float64(n * hw)
	dx := tensor.New(x.Shape()...)
	gd := b.Gamma.Value.Data()
	gg, bg := b.Gamma.Gradient().Data(), b.Beta.Gradient().Data()
	dy, xh, dxd := grad.Data(), b.lastXHat.Data(), dx.Data()

	for ch := 0; ch < b.C; ch++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := (i*b.C + ch) * hw
			for p := 0; p < hw; p++ {
				d := float64(dy[base+p])
				sumDy += d
				sumDyXhat += d * float64(xh[base+p])
			}
		}
		gg[ch] += float32(sumDyXhat)
		bg[ch] += float32(sumDy)
		// dx = (γ/std) * (dy - mean(dy) - x̂ * mean(dy·x̂))
		scale := float64(gd[ch]) / b.lastStd[ch]
		meanDy := sumDy / m
		meanDyXhat := sumDyXhat / m
		for i := 0; i < n; i++ {
			base := (i*b.C + ch) * hw
			for p := 0; p < hw; p++ {
				dxd[base+p] = float32(scale * (float64(dy[base+p]) - meanDy - float64(xh[base+p])*meanDyXhat))
			}
		}
	}
	return dx
}
