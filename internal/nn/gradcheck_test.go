package nn

import (
	"math"
	"testing"

	"tbnet/internal/tensor"
)

// Gradient checking: for loss L = <out, probe> with a fixed random probe, the
// analytic gradients from Backward must match central finite differences.

func lossWithProbe(l Layer, x *tensor.Tensor, probe *tensor.Tensor) float64 {
	out := l.Forward(x, true)
	var s float64
	for i, v := range out.Data() {
		s += float64(v) * float64(probe.Data()[i])
	}
	return s
}

// checkGrads runs Forward+Backward once and compares every parameter gradient
// and the input gradient against central differences.
func checkGrads(t *testing.T, l Layer, x *tensor.Tensor, seed uint64) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	out := l.Forward(x.Clone(), true)
	probe := tensor.New(out.Shape()...)
	rng.FillNormal(probe, 0, 1)

	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	dx := l.Backward(probe)

	const eps = 1e-2
	const tol = 6e-2
	check := func(name string, v *tensor.Tensor, analytic *tensor.Tensor, idx int) {
		t.Helper()
		orig := v.Data()[idx]
		v.Data()[idx] = orig + eps
		lp := lossWithProbe(l, x.Clone(), probe)
		v.Data()[idx] = orig - eps
		lm := lossWithProbe(l, x.Clone(), probe)
		v.Data()[idx] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(analytic.Data()[idx])
		scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
		if math.Abs(num-ana)/scale > tol {
			t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, idx, ana, num)
		}
	}

	for _, p := range l.Params() {
		n := p.Value.Size()
		stride := n/7 + 1
		for i := 0; i < n; i += stride {
			check(p.Name, p.Value, p.Grad, i)
		}
	}
	// Input gradient.
	n := x.Size()
	stride := n/7 + 1
	for i := 0; i < n; i += stride {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := lossWithProbe(l, x.Clone(), probe)
		x.Data()[i] = orig - eps
		lm := lossWithProbe(l, x.Clone(), probe)
		x.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(dx.Data()[i])
		scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
		if math.Abs(num-ana)/scale > tol {
			t.Fatalf("dx[%d]: analytic %v vs numeric %v", i, ana, num)
		}
	}
}

func randInput(shape []int, seed uint64) *tensor.Tensor {
	x := tensor.New(shape...)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	return x
}

func TestConvGradients(t *testing.T) {
	rng := tensor.NewRNG(11)
	c := NewConv2D("conv", 2, 3, 3, 1, 1, true, rng)
	checkGrads(t, c, randInput([]int{2, 2, 5, 5}, 3), 17)
}

func TestConvStride2Gradients(t *testing.T) {
	rng := tensor.NewRNG(12)
	c := NewConv2D("conv", 3, 2, 3, 2, 1, false, rng)
	checkGrads(t, c, randInput([]int{2, 3, 6, 6}, 4), 18)
}

func TestConv1x1Gradients(t *testing.T) {
	rng := tensor.NewRNG(13)
	c := NewConv2D("conv", 4, 2, 1, 1, 0, false, rng)
	checkGrads(t, c, randInput([]int{2, 4, 4, 4}, 5), 19)
}

func TestBatchNormGradients(t *testing.T) {
	b := NewBatchNorm2D("bn", 3)
	// Non-trivial γ/β.
	b.Gamma.Value.Data()[0] = 1.5
	b.Beta.Value.Data()[1] = -0.3
	checkGrads(t, b, randInput([]int{4, 3, 3, 3}, 6), 20)
}

func TestReLUGradients(t *testing.T) {
	checkGrads(t, NewReLU("relu"), randInput([]int{2, 3, 4, 4}, 7), 21)
}

func TestMaxPoolGradients(t *testing.T) {
	// Max pooling is non-differentiable where window elements tie, which
	// breaks finite differences; use well-separated values (gaps ≫ eps).
	x := tensor.New(2, 2, 4, 4)
	rng := tensor.NewRNG(8)
	for i, idx := range rng.Perm(x.Size()) {
		x.Data()[i] = float32(idx)
	}
	checkGrads(t, NewMaxPool2D("pool", 2), x, 22)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	checkGrads(t, NewGlobalAvgPool("gap"), randInput([]int{3, 4, 3, 3}, 9), 23)
}

func TestDenseGradients(t *testing.T) {
	rng := tensor.NewRNG(14)
	d := NewDense("fc", 6, 4, rng)
	checkGrads(t, d, randInput([]int{3, 6}, 10), 24)
}

// chain composes layers in order, the way a zoo stage composes its own.
type chain []Layer

func (c chain) Name() string { return "chain" }

func (c chain) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range c {
		x = l.Forward(x, train)
	}
	return x
}

func (c chain) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(c) - 1; i >= 0; i-- {
		grad = c[i].Backward(grad)
	}
	return grad
}

func (c chain) Params() []*Param {
	var ps []*Param
	for _, l := range c {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func (c chain) OutShape(in []int) []int {
	for _, l := range c {
		in = l.OutShape(in)
	}
	return in
}

func TestSequentialGradients(t *testing.T) {
	rng := tensor.NewRNG(15)
	seq := chain{
		NewConv2D("c1", 1, 2, 3, 1, 1, false, rng),
		NewBatchNorm2D("bn1", 2),
		NewReLU("r1"),
		NewMaxPool2D("p1", 2),
		NewGlobalAvgPool("gap"),
		NewDense("fc", 2, 3, rng),
	}
	checkGrads(t, seq, randInput([]int{2, 1, 4, 4}, 11), 25)
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := tensor.NewRNG(16)
	logits := tensor.New(3, 4)
	rng.FillNormal(logits, 0, 1)
	labels := []int{1, 3, 0}
	loss, grad := SoftmaxCrossEntropy(logits, labels)
	if loss <= 0 {
		t.Fatalf("loss = %v, want > 0", loss)
	}
	const eps = 1e-2
	for i := 0; i < logits.Size(); i++ {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data()[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(grad.Data()[i])
		if math.Abs(num-ana) > 5e-3 {
			t.Fatalf("logit grad[%d]: analytic %v vs numeric %v", i, ana, num)
		}
	}
}

func TestSoftmaxGradientRowsSumToZero(t *testing.T) {
	rng := tensor.NewRNG(17)
	logits := tensor.New(5, 7)
	rng.FillNormal(logits, 0, 2)
	labels := []int{0, 1, 2, 3, 4}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	for i := 0; i < 5; i++ {
		var s float64
		for j := 0; j < 7; j++ {
			s += float64(grad.Data()[i*7+j])
		}
		if math.Abs(s) > 1e-5 {
			t.Fatalf("grad row %d sums to %v, want 0 (softmax shift invariance)", i, s)
		}
	}
}

func TestDepthwiseConvGradients(t *testing.T) {
	rng := tensor.NewRNG(30)
	d := NewDepthwiseConv2D("dw", 3, 3, 1, 1, rng)
	checkGrads(t, d, randInput([]int{2, 3, 5, 5}, 31), 32)
}

func TestDepthwiseConvStride2Gradients(t *testing.T) {
	rng := tensor.NewRNG(33)
	d := NewDepthwiseConv2D("dw", 2, 3, 2, 1, rng)
	checkGrads(t, d, randInput([]int{2, 2, 6, 6}, 34), 35)
}
