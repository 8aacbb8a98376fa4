package core

import (
	"math"
	"testing"

	"tbnet/internal/data"
	"tbnet/internal/nn"
	"tbnet/internal/optim"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

func tinyVictimVGG(classes int, seed uint64) *zoo.Model {
	return zoo.BuildVGG(zoo.TinyVGGConfig(classes), tensor.NewRNG(seed))
}

func tinyVictimResNet(classes int, seed uint64) *zoo.Model {
	return zoo.BuildResNet(zoo.TinyResNetConfig(classes), true, tensor.NewRNG(seed))
}

func randX(n int, seed uint64) *tensor.Tensor {
	x := tensor.New(n, 3, 16, 16)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	return x
}

func TestNewTwoBranchVGGInheritsVictimWeights(t *testing.T) {
	victim := tinyVictimVGG(10, 1)
	tb := NewTwoBranch(victim, 2)
	// M_R starts as the victim.
	vw := victim.Stages[0].(*zoo.ConvBlock).Conv.W.Value
	rw := tb.MR.Stages[0].(*zoo.ConvBlock).Conv.W.Value
	for i := range vw.Data() {
		if vw.Data()[i] != rw.Data()[i] {
			t.Fatal("M_R must inherit the victim's weights")
		}
	}
	// M_T has the same architecture but fresh weights.
	tw := tb.MT.Stages[0].(*zoo.ConvBlock).Conv.W.Value
	if !vw.SameShape(tw) {
		t.Fatal("M_T must share the victim's architecture")
	}
	same := true
	for i := range vw.Data() {
		if vw.Data()[i] != tw.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("M_T must not inherit the victim's weights")
	}
}

func TestNewTwoBranchResNetStripsSkips(t *testing.T) {
	victim := tinyVictimResNet(10, 3)
	tb := NewTwoBranch(victim, 4)
	for _, s := range tb.MR.Stages {
		if rb, ok := s.(*zoo.ResBlock); ok && rb.WithSkip {
			t.Fatal("M_R of a ResNet victim must exclude skip connections")
		}
	}
	foundSkip := false
	for _, s := range tb.MT.Stages {
		if rb, ok := s.(*zoo.ResBlock); ok && rb.WithSkip {
			foundSkip = true
		}
	}
	if !foundSkip {
		t.Fatal("M_T must keep the victim's original (skip-connected) architecture")
	}
}

func TestTwoBranchForwardShape(t *testing.T) {
	tb := NewTwoBranch(tinyVictimVGG(10, 5), 6)
	out := tb.Forward(randX(3, 7), false)
	if out.Dim(0) != 3 || out.Dim(1) != 10 {
		t.Fatalf("logits = %v, want [3 10]", out.Shape())
	}
}

// TestTwoBranchGradients: numeric gradient check through the cross-branch
// feature-map additions.
func TestTwoBranchGradients(t *testing.T) {
	tb := NewTwoBranch(tinyVictimVGG(4, 8), 9)
	x := randX(2, 10)
	labels := []int{1, 3}

	lossOf := func() float64 {
		// A fresh forward in train mode (BN batch statistics), as Backward saw.
		logits := tb.Forward(x, true)
		loss, _ := nn.SoftmaxCrossEntropy(logits, labels)
		return loss
	}

	logits := tb.Forward(x, true)
	_, grad := nn.SoftmaxCrossEntropy(logits, labels)
	params := tb.TrainableParams()
	optim.ZeroGrads(params)
	tb.Backward(grad)

	// Check a few parameters across both branches.
	probes := []*nn.Param{
		tb.MR.Stages[0].(*zoo.ConvBlock).Conv.W,
		tb.MR.Stages[2].(*zoo.ConvBlock).BN.Gamma,
		tb.MT.Stages[1].(*zoo.ConvBlock).Conv.W,
		tb.MT.Head.FC.W,
	}
	const eps = 1e-2
	for _, p := range probes {
		idx := p.Value.Size() / 2
		orig := p.Value.Data()[idx]
		p.Value.Data()[idx] = orig + eps
		lp := lossOf()
		p.Value.Data()[idx] = orig - eps
		lm := lossOf()
		p.Value.Data()[idx] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(p.Grad.Data()[idx])
		scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
		if math.Abs(num-ana)/scale > 8e-2 {
			t.Fatalf("%s grad: analytic %v vs numeric %v", p.Name, ana, num)
		}
	}
}

func TestMRHeadFrozenDuringTransfer(t *testing.T) {
	tb := NewTwoBranch(tinyVictimVGG(4, 11), 12)
	before := tb.MR.Head.FC.W.Value.Clone()
	train, test := data.Generate(data.SynthConfig{
		Name: "t", Classes: 4, H: 16, W: 16, Train: 32, Test: 16, Seed: 1,
		NoiseStd: 0.3, MaxShift: 1, Components: 3})
	cfg := DefaultTrainConfig(1)
	cfg.BatchSize = 16
	TrainTwoBranch(tb, train, test, cfg)
	for i := range before.Data() {
		if tb.MR.Head.FC.W.Value.Data()[i] != before.Data()[i] {
			t.Fatal("M_R's head must stay frozen during knowledge transfer")
		}
	}
	// But M_R's stages must have been updated (they receive gradient through
	// the transfer additions).
	moved := false
	w0 := tb.MR.Stages[0].(*zoo.ConvBlock).Conv.W.Value
	victim := tinyVictimVGG(4, 11)
	v0 := victim.Stages[0].(*zoo.ConvBlock).Conv.W.Value
	for i := range w0.Data() {
		if w0.Data()[i] != v0.Data()[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("M_R's stages must be updated by knowledge transfer")
	}
}

func TestGatherScatterAdjoint(t *testing.T) {
	rng := tensor.NewRNG(13)
	x := tensor.New(2, 5, 3, 3)
	rng.FillNormal(x, 0, 1)
	idx := []int{0, 2, 4}
	g := tensor.New(2, 3, 3, 3)
	rng.FillNormal(g, 0, 1)
	// <gather(x), g> == <x, scatter(g)>
	gx := gatherChannels(x, idx)
	var lhs float64
	for i := range gx.Data() {
		lhs += float64(gx.Data()[i]) * float64(g.Data()[i])
	}
	sg := scatterChannels(g, idx, 5)
	var rhs float64
	for i := range x.Data() {
		rhs += float64(x.Data()[i]) * float64(sg.Data()[i])
	}
	if math.Abs(lhs-rhs) > 1e-4 {
		t.Fatalf("gather/scatter not adjoint: %v vs %v", lhs, rhs)
	}
}

func TestCloneDeep(t *testing.T) {
	tb := NewTwoBranch(tinyVictimVGG(4, 14), 15)
	tb.Align[1] = []int{0, 1, 2}
	cl := tb.Clone()
	cl.MT.Stages[0].(*zoo.ConvBlock).Conv.W.Value.Fill(0)
	cl.Align[1][0] = 99
	if tensor.MaxAbs(tb.MT.Stages[0].(*zoo.ConvBlock).Conv.W.Value.Data()) == 0 {
		t.Fatal("clone shares MT weights")
	}
	if tb.Align[1][0] == 99 {
		t.Fatal("clone shares alignment slices")
	}
}

func TestBranchGammas(t *testing.T) {
	m := tinyVictimVGG(4, 16)
	gs := BranchGammas(m)
	want := 8 + 12 + 16 // TinyVGG widths
	if len(gs) != want {
		t.Fatalf("gamma count = %d, want %d", len(gs), want)
	}
	for _, v := range gs {
		if v != 1 {
			t.Fatalf("fresh BN gamma = %v, want 1", v)
		}
	}
}

// TestTwoBranchMobileNetPipeline: the full TBNet flow works on the third
// architecture family (depthwise-separable blocks).
func TestTwoBranchMobileNetPipeline(t *testing.T) {
	train, test := smallTask(4, 48, 24, 50)
	victim := zoo.BuildMobileNet(zoo.MobileNetSConfig(4), tensor.NewRNG(51))
	TrainModel(victim, train, nil, fastCfg(1))
	tb := NewTwoBranch(victim, 52)
	TrainTwoBranch(tb, train, test, fastCfg(1))
	cfg := DefaultPruneConfig(1.0, 1)
	cfg.MaxIters = 1
	cfg.FineTune = fastCfg(1)
	res := PruneTwoBranch(tb, train, test, cfg)
	FinalizeRollback(tb, res)
	out := tb.Forward(randX(2, 53), false)
	if out.Dim(1) != 4 {
		t.Fatalf("finalized MobileNet forward gave %v", out.Shape())
	}
}
