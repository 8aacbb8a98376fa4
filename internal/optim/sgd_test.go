package optim

import (
	"math"
	"testing"

	"tbnet/internal/nn"
	"tbnet/internal/tensor"
)

func TestSGDPlainStep(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := nn.NewDense("fc", 2, 2, rng)
	w0 := d.W.Value.Clone()
	d.W.Gradient().Fill(1)
	o := NewSGD(0.1, 0, 0)
	o.Step(d.Params())
	for i := range w0.Data() {
		want := w0.Data()[i] - 0.1
		if math.Abs(float64(d.W.Value.Data()[i]-want)) > 1e-6 {
			t.Fatalf("w[%d] = %v, want %v", i, d.W.Value.Data()[i], want)
		}
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	rng := tensor.NewRNG(2)
	d := nn.NewDense("fc", 1, 1, rng)
	d.W.Value.Data()[0] = 0
	o := NewSGD(1, 0.9, 0)
	// Constant gradient 1: steps should be 1, 1.9, 2.71, ...
	d.W.Gradient().Fill(1)
	o.Step([]*nn.Param{d.W})
	if got := d.W.Value.Data()[0]; math.Abs(float64(got+1)) > 1e-6 {
		t.Fatalf("after step 1, w = %v, want -1", got)
	}
	o.Step([]*nn.Param{d.W})
	if got := d.W.Value.Data()[0]; math.Abs(float64(got+2.9)) > 1e-6 {
		t.Fatalf("after step 2, w = %v, want -2.9", got)
	}
}

func TestSGDWeightDecayRespectsFlag(t *testing.T) {
	rng := tensor.NewRNG(3)
	d := nn.NewDense("fc", 1, 1, rng) // Decay=true params
	bn := nn.NewBatchNorm2D("bn", 1)  // Decay=false params
	d.W.Value.Data()[0] = 10
	bn.Gamma.Value.Data()[0] = 10
	o := NewSGD(0.1, 0, 1.0)
	// Zero gradients: only decay acts.
	o.Step([]*nn.Param{d.W, bn.Gamma})
	if got := d.W.Value.Data()[0]; math.Abs(float64(got-9)) > 1e-5 {
		t.Fatalf("decayed weight = %v, want 9", got)
	}
	if got := bn.Gamma.Value.Data()[0]; got != 10 {
		t.Fatalf("BN gamma decayed to %v; decay must not apply", got)
	}
}

func TestStepLRSchedule(t *testing.T) {
	s := StepLR{Base: 0.1, StepEpochs: 100, Gamma: 0.1}
	cases := map[int]float64{0: 0.1, 99: 0.1, 100: 0.01, 199: 0.01, 200: 0.001}
	for epoch, want := range cases {
		if got := s.At(epoch); math.Abs(got-want) > 1e-12 {
			t.Fatalf("lr(%d) = %v, want %v", epoch, got, want)
		}
	}
}

func TestStepLRNoSchedule(t *testing.T) {
	s := StepLR{Base: 0.05}
	if got := s.At(1000); got != 0.05 {
		t.Fatalf("lr = %v, want constant 0.05", got)
	}
}

func TestAddL1Subgradient(t *testing.T) {
	bn := nn.NewBatchNorm2D("bn", 3)
	bn.Gamma.Value.Data()[0] = 2
	bn.Gamma.Value.Data()[1] = -3
	bn.Gamma.Value.Data()[2] = 0
	AddL1Subgradient(bn.Gamma, 0.5)
	g := bn.Gamma.Grad.Data()
	if g[0] != 0.5 || g[1] != -0.5 || g[2] != 0 {
		t.Fatalf("L1 subgradient = %v, want [0.5 -0.5 0]", g)
	}
}

func TestL1DrivesGammaTowardZero(t *testing.T) {
	// Repeated L1-only steps should shrink |γ| — the mechanism that creates
	// the sparsity TBNet's pruning relies on.
	bn := nn.NewBatchNorm2D("bn", 1)
	bn.Gamma.Value.Data()[0] = 1
	o := NewSGD(0.01, 0, 0)
	for i := 0; i < 50; i++ {
		bn.Gamma.ZeroGrad()
		AddL1Subgradient(bn.Gamma, 1)
		o.Step([]*nn.Param{bn.Gamma})
	}
	if got := bn.Gamma.Value.Data()[0]; got > 0.51 {
		t.Fatalf("gamma = %v after 50 L1 steps, want ≤ 0.5", got)
	}
}

func TestZeroGrads(t *testing.T) {
	rng := tensor.NewRNG(4)
	d := nn.NewDense("fc", 2, 2, rng)
	d.W.Gradient().Fill(3)
	d.B.Gradient().Fill(3)
	ZeroGrads(d.Params())
	if tensor.MaxAbs(d.W.Grad.Data()) != 0 || tensor.MaxAbs(d.B.Grad.Data()) != 0 {
		t.Fatal("ZeroGrads left non-zero gradients")
	}
}
