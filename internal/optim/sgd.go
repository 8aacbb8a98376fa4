// Package optim implements the optimizers used to train TBNet models: SGD
// with momentum and L2 weight decay (the paper's configuration: lr 0.1,
// momentum 0.9, weight decay 1e-4) plus a step learning-rate schedule and the
// L1 sparsity subgradient that Eq. 1 of the paper applies to batch-norm
// scale weights.
package optim

import (
	"tbnet/internal/nn"
	"tbnet/internal/tensor"
)

// SGD is stochastic gradient descent with classical momentum:
//
//	v ← μ·v + (g + wd·w);  w ← w − lr·v
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	velocity    map[*nn.Param]*tensor.Tensor
}

// NewSGD creates an optimizer with the given hyperparameters.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[*nn.Param]*tensor.Tensor)}
}

// Step applies one update to every parameter and leaves gradients untouched
// (call ZeroGrad between batches).
func (o *SGD) Step(params []*nn.Param) {
	lr := float32(o.LR)
	mu := float32(o.Momentum)
	wd := float32(o.WeightDecay)
	for _, p := range params {
		v, ok := o.velocity[p]
		if !ok || v.Size() != p.Value.Size() {
			v = tensor.New(p.Value.Shape()...)
			o.velocity[p] = v
		}
		vd, gd, wdta := v.Data(), p.Gradient().Data(), p.Value.Data()
		for i := range vd {
			g := gd[i]
			if p.Decay {
				g += wd * wdta[i]
			}
			vd[i] = mu*vd[i] + g
			wdta[i] -= lr * vd[i]
		}
	}
}

// ZeroGrads clears all gradients.
func ZeroGrads(params []*nn.Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// StepLR multiplies the learning rate by Gamma every StepEpochs epochs,
// mirroring the paper's "one-tenth every 100 epochs" schedule.
type StepLR struct {
	Base       float64
	StepEpochs int
	Gamma      float64
}

// At returns the learning rate for a (zero-based) epoch.
func (s StepLR) At(epoch int) float64 {
	lr := s.Base
	if s.StepEpochs <= 0 {
		return lr
	}
	for e := s.StepEpochs; e <= epoch; e += s.StepEpochs {
		lr *= s.Gamma
	}
	return lr
}

// AddL1Subgradient adds λ·sign(w) to the gradient of p — the sparsity-induced
// penalty g of Eq. 1 applied to batch-norm scale weights.
func AddL1Subgradient(p *nn.Param, lambda float64) {
	l := float32(lambda)
	gd, wd := p.Gradient().Data(), p.Value.Data()
	for i, w := range wd {
		switch {
		case w > 0:
			gd[i] += l
		case w < 0:
			gd[i] -= l
		}
	}
}
