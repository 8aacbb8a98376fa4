package zoo_test

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"tbnet/internal/nn"
	"tbnet/internal/profile"
	"tbnet/internal/quant"
	"tbnet/internal/serial"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// mixBlock is a stage kind that exists only in this file: a biased 3×3 conv
// → BN → ReLU → depthwise 3×3 → BN. Nothing in quant, profile or zoo's
// Model names it; that they handle it is what the test below proves. It also
// covers the one thing no shipped kind has — a convolution with a bias.
type mixBlock struct {
	conv     *nn.Conv2D
	bn1, bn2 *nn.BatchNorm2D
	act      *nn.ReLU
	dw       *nn.DepthwiseConv2D
	name     string
}

func newMixBlock(name string, inC, outC int, rng *tensor.RNG) *mixBlock {
	return &mixBlock{
		conv: nn.NewConv2D(name+".conv", inC, outC, 3, 1, 1, true, rng),
		bn1:  nn.NewBatchNorm2D(name+".bn1", outC),
		act:  nn.NewReLU(name + ".relu"),
		dw:   nn.NewDepthwiseConv2D(name+".dw", outC, 3, 1, 1, rng),
		bn2:  nn.NewBatchNorm2D(name+".bn2", outC),
		name: name,
	}
}

func (b *mixBlock) Name() string { return b.name }

func (b *mixBlock) Params() []*nn.Param {
	ps := append(b.conv.Params(), b.bn1.Params()...)
	return append(append(ps, b.dw.Params()...), b.bn2.Params()...)
}

func (b *mixBlock) OutShape(in []int) []int { return b.dw.OutShape(b.conv.OutShape(in)) }

func (b *mixBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := b.act.Forward(b.bn1.Forward(b.conv.Forward(x, train), train), train)
	return b.bn2.Forward(b.dw.Forward(y, train), train)
}

func (b *mixBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := b.dw.Backward(b.bn2.Backward(grad))
	return b.conv.Backward(b.bn1.Backward(b.act.Backward(g)))
}

func (b *mixBlock) InferInto(dst, x *tensor.Tensor, a *nn.Arena) {
	mid := a.Tensor4(b.name, x.Dim(0), b.conv.OutC, x.Dim(2), x.Dim(3))
	b.conv.ForwardIntoBN(mid, x, a, b.bn1, true)
	b.dw.ForwardIntoBN(dst, mid, a, b.bn2, false)
}

func (b *mixBlock) PackNarrow(in []int) { b.conv.PackNarrow(in) }

func (b *mixBlock) OutChannels() int         { return b.dw.C }
func (b *mixBlock) InChannels() int          { return b.conv.InC }
func (b *mixBlock) Convs() []nn.Weighted     { return []nn.Weighted{b.conv, b.dw} }
func (b *mixBlock) Norms() []*nn.BatchNorm2D { return []*nn.BatchNorm2D{b.bn1, b.bn2} }

func (b *mixBlock) Flops(in []int) float64 {
	out := b.OutShape(in)
	elems := float64(out[0] * out[1] * out[2] * out[3])
	return 2*float64(b.conv.InC*9)*elems + 5*elems + 2*9*elems + 4*elems
}

func (b *mixBlock) Group() (zoo.GroupKind, *nn.Param, bool) {
	return zoo.GroupOutput, b.bn2.Gamma, true
}

func (b *mixBlock) PruneGroup(keep []int) {
	b.conv.PruneOutput(keep)
	b.bn1.Prune(keep)
	b.dw.PruneChannels(keep)
	b.bn2.Prune(keep)
}

func (b *mixBlock) PruneIn(keep []int) { b.conv.PruneInput(keep) }

func (b *mixBlock) CloneStage(clone func(nn.Layer) nn.Layer) zoo.Stage {
	return &mixBlock{
		conv: clone(b.conv).(*nn.Conv2D),
		bn1:  clone(b.bn1).(*nn.BatchNorm2D),
		act:  nn.NewReLU(b.name + ".relu"),
		dw:   clone(b.dw).(*nn.DepthwiseConv2D),
		bn2:  clone(b.bn2).(*nn.BatchNorm2D),
		name: b.name,
	}
}

// mixModel is stem → mixBlock → mixBlock → head.
func mixModel(rng *tensor.RNG) *zoo.Model {
	m := &zoo.Model{Name: "Mix", Arch: "mix", InC: 3, Classes: 4}
	m.Stages = []zoo.Stage{
		zoo.NewConvBlock("Mix.stem", 3, 8, 1, 2, rng),
		newMixBlock("Mix.m0", 8, 12, rng),
		newMixBlock("Mix.m1", 12, 16, rng),
	}
	m.Head = zoo.NewHead("Mix.head", 16, 4, rng)
	return m
}

func closeLogits(t *testing.T, what string, a, b *tensor.Tensor, tol float64) {
	t.Helper()
	for i := range a.Data() {
		av, bv := float64(a.Data()[i]), float64(b.Data()[i])
		if math.Abs(av-bv)/math.Max(1, math.Abs(av)) > tol {
			t.Fatalf("%s: logit %d is %v, float32 model says %v", what, i, bv, av)
		}
	}
}

// TestFourthStageKindNeedsNoOtherPackage runs a stage kind defined above —
// and nowhere else — through every consumer that used to switch on the
// concrete stage types. Before zoo.Stage answered for its own layers this
// panicked in quant.Quantize ("unknown stage type"), priced the stage at 0
// FLOPs, and Reinitialize left its weights as they were without a message.
func TestFourthStageKindNeedsNoOtherPackage(t *testing.T) {
	m := mixModel(tensor.NewRNG(3))
	x := tensor.New(2, 3, 16, 16)
	tensor.NewRNG(4).FillNormal(x, 0, 1)
	m.Forward(x.Clone(), true) // non-trivial running statistics
	for _, s := range m.Stages[1:] {
		tensor.NewRNG(5).FillNormal(s.(*mixBlock).conv.B.Value, 0, 0.5)
	}
	want := m.Forward(x.Clone(), false)

	// Quantize → Dequantize / the armed model, and the footprint.
	qm := quant.Quantize(m)
	if len(qm.Convs) != 5 {
		t.Fatalf("quantized %d convolutions, the model has 5", len(qm.Convs))
	}
	for i, dims := range [][3]int{{8, 27, 0}, {12, 72, 12}, {12, 9, 0}, {16, 108, 16}, {16, 9, 0}} {
		q := qm.Convs[i]
		if q.OutC != dims[0] || q.Cols != dims[1] || len(q.Bias) != dims[2] {
			t.Fatalf("record %d is %dx%d bias %d, want %v", i, q.OutC, q.Cols, len(q.Bias), dims)
		}
	}
	var wantBytes int64 = (8*27 + 12*72 + 12*9 + 16*108 + 16*9 + 16*4) + // int8 weights
		4*(8+12+12+16+16+4) + 4*(12+16+4) + // scales, biases
		16*(8+12+12+16+16) // batch norms
	if got := qm.ParamBytes(); got != wantBytes {
		t.Fatalf("ParamBytes = %d, hand count %d", got, wantBytes)
	}
	closeLogits(t, "Dequantize", want, qm.Dequantize().Forward(x.Clone(), false), 0.05)
	rm := qm.Model
	for _, s := range rm.Stages {
		for i, c := range s.Convs() {
			if !armed(c) {
				t.Fatalf("%s layer %d not armed for int8", s.Name(), i)
			}
		}
	}
	closeLogits(t, "int8", want, rm.Forward(x.Clone(), false), 0.25)

	// The cost model prices the stage with its own formula.
	mc := profile.Profile(m, x.Shape())
	mid := m.Stages[0].OutShape(x.Shape())
	if c := mc.Stages[1]; c.Flops != m.Stages[1].Flops(mid) || c.Flops <= 0 ||
		c.OutBytes != 4*2*12*8*8 || c.ParamBytes != 4*(12*72+12+12*9+4*12) {
		t.Fatalf("stage cost %+v", c)
	}

	// Groups and ApplyKeep: pruning m0's outputs narrows m1's input.
	groups := m.Groups()
	if len(groups) != 3 || groups[1] != (zoo.GroupRef{Stage: 1, Kind: zoo.GroupOutput}) {
		t.Fatalf("groups = %v", groups)
	}
	p := m.Clone()
	p.ApplyKeep(groups[1], []int{0, 2, 4, 6, 8, 10})
	if p.GroupSize(groups[1]) != 6 || p.Stages[1].OutChannels() != 6 || p.Stages[2].InChannels() != 6 {
		t.Fatalf("after ApplyKeep: group %d, out %d, next in %d",
			p.GroupSize(groups[1]), p.Stages[1].OutChannels(), p.Stages[2].InChannels())
	}
	if got := p.Forward(x.Clone(), false).Shape(); got[0] != 2 || got[1] != 4 {
		t.Fatalf("pruned model logits shape %v", got)
	}
	if after := profile.Profile(p, x.Shape()); after.TotalFlops() >= mc.TotalFlops() {
		t.Fatalf("pruning did not lower FLOPs: %v → %v", mc.TotalFlops(), after.TotalFlops())
	}

	// Reinitialize: every weight redrawn, every bias zeroed, every batch
	// norm back to its initial state.
	r := m.Clone()
	for _, p := range r.Params() {
		p.Value.Fill(0.25)
	}
	r.Reinitialize(tensor.NewRNG(6))
	for _, s := range r.Stages {
		for _, c := range s.Convs() {
			for i, v := range c.Weight().Value.Data() {
				if v == 0.25 {
					t.Fatalf("%s element %d not redrawn", c.Weight().Name, i)
				}
			}
			if b := c.Bias(); b != nil && tensor.MaxAbs(b.Value.Data()) != 0 {
				t.Fatalf("%s not zeroed", b.Name)
			}
		}
		for _, bn := range s.Norms() {
			for ch := 0; ch < bn.C; ch++ {
				if bn.Gamma.Value.Data()[ch] != 1 || bn.Beta.Value.Data()[ch] != 0 ||
					bn.RunMean.Data()[ch] != 0 || bn.RunVar.Data()[ch] != 1 {
					t.Fatalf("%s channel %d not reset", bn.Name(), ch)
				}
			}
		}
	}

	// The artifact format is the one place that is closed over the kinds
	// it has bytes for, and it says so instead of writing a partial file.
	if err := serial.SaveModel(new(bytes.Buffer), m); err == nil || !strings.Contains(err.Error(), "unknown stage type") {
		t.Fatalf("SaveModel of an unrecorded stage kind: %v", err)
	}
}

// armed reports whether a realized layer holds int8 weights: the packed
// weights its int8 path runs from, read by reflection, since no product path
// asks a depthwise or dense layer for them.
func armed(layer any) bool {
	return !reflect.ValueOf(layer).Elem().FieldByName("qw").IsNil()
}
