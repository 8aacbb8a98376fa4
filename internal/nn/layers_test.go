package nn

import (
	"math"
	"testing"

	"tbnet/internal/tensor"
)

func TestBatchNormTrainStats(t *testing.T) {
	b := NewBatchNorm2D("bn", 2)
	x := randInput([]int{8, 2, 4, 4}, 1)
	out := b.Forward(x, true)
	// After training-mode BN with γ=1 β=0, each channel has ~0 mean, ~1 var.
	n, h, w := 8, 4, 4
	hw := h * w
	for ch := 0; ch < 2; ch++ {
		var sum, sq float64
		for i := 0; i < n; i++ {
			base := (i*2 + ch) * hw
			for p := 0; p < hw; p++ {
				v := float64(out.Data()[base+p])
				sum += v
				sq += v * v
			}
		}
		m := float64(n * hw)
		mean := sum / m
		variance := sq/m - mean*mean
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("channel %d mean = %v, want ~0", ch, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d variance = %v, want ~1", ch, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	b := NewBatchNorm2D("bn", 1)
	// Warm running stats with several training batches.
	for i := 0; i < 50; i++ {
		x := randInput([]int{16, 1, 2, 2}, uint64(i+1))
		// Shift the distribution: mean 3, std 2.
		for j, v := range x.Data() {
			x.Data()[j] = 3 + 2*v
		}
		b.Forward(x, true)
	}
	// Eval on a constant input: output should be ≈ (3-mean)/std ≈ 0.
	x := tensor.New(1, 1, 2, 2)
	x.Fill(3)
	out := b.Forward(x, false)
	for _, v := range out.Data() {
		if math.Abs(float64(v)) > 0.2 {
			t.Fatalf("eval BN of the running mean = %v, want ~0", v)
		}
	}
}

func TestReLUForward(t *testing.T) {
	r := NewReLU("relu")
	x := tensor.FromData([]float32{-1, 0, 2, -3}, 1, 1, 2, 2)
	out := r.Forward(x, false)
	want := []float32{0, 0, 2, 0}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("relu gave %v, want %v", out.Data(), want)
		}
	}
}

func TestMaxPoolForward(t *testing.T) {
	p := NewMaxPool2D("pool", 2)
	x := tensor.FromData([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 0,
	}, 1, 1, 4, 4)
	out := p.Forward(x, false)
	want := []float32{4, 8, 9, 4}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("maxpool gave %v, want %v", out.Data(), want)
		}
	}
}

func TestConvKnownKernel(t *testing.T) {
	rng := tensor.NewRNG(1)
	c := NewConv2D("conv", 1, 1, 3, 1, 1, false, rng)
	// Identity kernel: 1 at center.
	c.W.Value.Zero()
	c.W.Value.Data()[4] = 1
	x := randInput([]int{1, 1, 5, 5}, 2)
	out := c.Forward(x, false)
	for i, v := range out.Data() {
		if math.Abs(float64(v-x.Data()[i])) > 1e-6 {
			t.Fatalf("identity conv changed the input at %d", i)
		}
	}
}

func TestConvShapePropagation(t *testing.T) {
	rng := tensor.NewRNG(1)
	c := NewConv2D("conv", 3, 8, 3, 2, 1, false, rng)
	got := c.OutShape([]int{4, 3, 16, 16})
	want := []int{4, 8, 8, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OutShape = %v, want %v", got, want)
		}
	}
	out := c.Forward(randInput([]int{4, 3, 16, 16}, 3), false)
	for i := range want {
		if out.Dim(i) != want[i] {
			t.Fatalf("Forward shape = %v, want %v", out.Shape(), want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := tensor.NewRNG(5)
	c := NewConv2D("conv", 2, 2, 3, 1, 1, false, rng)
	cl := CloneOf(c).(*Conv2D)
	cl.W.Value.Data()[0] = 99
	if c.W.Value.Data()[0] == 99 {
		t.Fatal("clone shares weight storage with the original")
	}
}

func TestSequentialClone(t *testing.T) {
	rng := tensor.NewRNG(6)
	seq := chain{
		NewConv2D("c1", 1, 2, 3, 1, 1, false, rng),
		NewBatchNorm2D("bn1", 2),
		NewReLU("r1"),
	}
	var cl chain
	for _, l := range seq {
		cl = append(cl, CloneOf(l))
	}
	x := randInput([]int{2, 1, 4, 4}, 7)
	a := seq.Forward(x.Clone(), false)
	b := cl.Forward(x.Clone(), false)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("clone does not reproduce the original's output")
		}
	}
}

// TestConvPruneOutputEquivalence: pruning output channels must exactly select
// the corresponding output feature maps.
func TestConvPruneOutputEquivalence(t *testing.T) {
	rng := tensor.NewRNG(8)
	c := NewConv2D("conv", 2, 4, 3, 1, 1, true, rng)
	x := randInput([]int{1, 2, 5, 5}, 9)
	full := c.Forward(x.Clone(), false)

	pruned := CloneOf(c).(*Conv2D)
	keep := []int{0, 2, 3}
	pruned.PruneOutput(keep)
	out := pruned.Forward(x.Clone(), false)

	hw := 5 * 5
	for i, ch := range keep {
		for p := 0; p < hw; p++ {
			got := out.Data()[i*hw+p]
			want := full.Data()[ch*hw+p]
			if math.Abs(float64(got-want)) > 1e-6 {
				t.Fatalf("pruned channel %d differs at %d: %v vs %v", ch, p, got, want)
			}
		}
	}
}

// TestConvPruneInputEquivalence: if the dropped input channels are zero, the
// pruned convolution must compute the same output.
func TestConvPruneInputEquivalence(t *testing.T) {
	rng := tensor.NewRNG(10)
	c := NewConv2D("conv", 4, 3, 3, 1, 1, false, rng)
	keep := []int{1, 3}
	x := randInput([]int{2, 4, 5, 5}, 11)
	// Zero the channels that will be dropped.
	hw := 5 * 5
	for i := 0; i < 2; i++ {
		for _, ch := range []int{0, 2} {
			base := (i*4 + ch) * hw
			for p := 0; p < hw; p++ {
				x.Data()[base+p] = 0
			}
		}
	}
	full := c.Forward(x.Clone(), false)

	pruned := CloneOf(c).(*Conv2D)
	pruned.PruneInput(keep)
	xs := tensor.New(2, 2, 5, 5)
	for i := 0; i < 2; i++ {
		for j, ch := range keep {
			copy(xs.Data()[(i*2+j)*hw:(i*2+j+1)*hw], x.Data()[(i*4+ch)*hw:(i*4+ch+1)*hw])
		}
	}
	out := pruned.Forward(xs, false)
	for i := range out.Data() {
		if math.Abs(float64(out.Data()[i]-full.Data()[i])) > 1e-5 {
			t.Fatalf("input-pruned conv differs at %d: %v vs %v", i, out.Data()[i], full.Data()[i])
		}
	}
}

func TestBatchNormPrune(t *testing.T) {
	b := NewBatchNorm2D("bn", 4)
	for i := 0; i < 4; i++ {
		b.Gamma.Value.Data()[i] = float32(i)
		b.RunMean.Data()[i] = float32(10 * i)
	}
	b.Prune([]int{1, 3})
	if b.C != 2 {
		t.Fatalf("C = %d, want 2", b.C)
	}
	if b.Gamma.Value.Data()[0] != 1 || b.Gamma.Value.Data()[1] != 3 {
		t.Fatalf("gamma = %v, want [1 3]", b.Gamma.Value.Data())
	}
	if b.RunMean.Data()[1] != 30 {
		t.Fatalf("run mean = %v, want [10 30]", b.RunMean.Data())
	}
}

func TestDensePruneInput(t *testing.T) {
	rng := tensor.NewRNG(12)
	d := NewDense("fc", 4, 2, rng) // 4 channels × spatial 1
	x := tensor.FromData([]float32{1, 2, 3, 4}, 1, 4)
	full := d.Forward(x, false)

	// Keeping channels {0, 2}: with inputs 2 and 4 zeroed, outputs must match.
	x2 := tensor.FromData([]float32{1, 0, 3, 0}, 1, 4)
	fullMasked := d.Forward(x2, false)
	_ = full

	pruned := CloneOf(d).(*Dense)
	pruned.PruneInput([]int{0, 2}, 1)
	xs := tensor.FromData([]float32{1, 3}, 1, 2)
	out := pruned.Forward(xs, false)
	for i := range out.Data() {
		if math.Abs(float64(out.Data()[i]-fullMasked.Data()[i])) > 1e-6 {
			t.Fatalf("dense prune mismatch: %v vs %v", out.Data(), fullMasked.Data())
		}
	}
}

func TestParamZeroGrad(t *testing.T) {
	rng := tensor.NewRNG(13)
	d := NewDense("fc", 3, 2, rng)
	x := randInput([]int{2, 3}, 14)
	out := d.Forward(x, true)
	g := tensor.New(out.Shape()...)
	g.Fill(1)
	d.Backward(g)
	if tensor.MaxAbs(d.W.Grad.Data()) == 0 {
		t.Fatal("gradient should be non-zero after backward")
	}
	d.W.ZeroGrad()
	if tensor.MaxAbs(d.W.Grad.Data()) != 0 {
		t.Fatal("ZeroGrad must clear the gradient")
	}
}
