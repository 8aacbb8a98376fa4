package zoo

import (
	"tbnet/internal/nn"
	"tbnet/internal/tensor"
)

// DWBlock is a MobileNet-style depthwise-separable stage: depthwise 3×3
// (spatial) → BN → ReLU → pointwise 1×1 (channel mixing) → BN → ReLU. Its
// prunable output group is the pointwise convolution's output channel set,
// ranked by the trailing BN — the same surface TBNet's composite pruning
// operates on for plain conv blocks.
type DWBlock struct {
	DW   *nn.DepthwiseConv2D
	BN1  *nn.BatchNorm2D
	Act1 *nn.ReLU
	PW   *nn.Conv2D
	BN2  *nn.BatchNorm2D
	Act2 *nn.ReLU
	name string
}

// NewDWBlock builds a depthwise-separable block; stride applies to the
// depthwise (spatial) convolution.
func NewDWBlock(name string, inC, outC, stride int, rng *tensor.RNG) *DWBlock {
	dw := nn.NewDepthwiseConv2D(name+".dw", inC, 3, stride, 1, rng)
	pw := nn.NewConv2D(name+".pw", inC, outC, 1, 1, 0, false, rng)
	return AssembleDWBlock(name, dw, nn.NewBatchNorm2D(name+".bn1", inC), pw, nn.NewBatchNorm2D(name+".bn2", outC))
}

// AssembleDWBlock builds a depthwise-separable block around existing layers.
func AssembleDWBlock(name string, dw *nn.DepthwiseConv2D, bn1 *nn.BatchNorm2D, pw *nn.Conv2D, bn2 *nn.BatchNorm2D) *DWBlock {
	return &DWBlock{
		DW:   dw,
		BN1:  bn1,
		Act1: nn.NewReLU(name + ".relu1"),
		PW:   pw,
		BN2:  bn2,
		Act2: nn.NewReLU(name + ".relu2"),
		name: name,
	}
}

// Name returns the stage's diagnostic name.
func (b *DWBlock) Name() string { return b.name }

// Params returns all trainable parameters.
func (b *DWBlock) Params() []*nn.Param {
	ps := append(b.DW.Params(), b.BN1.Params()...)
	ps = append(ps, b.PW.Params()...)
	return append(ps, b.BN2.Params()...)
}

// OutShape composes the block's layers.
func (b *DWBlock) OutShape(in []int) []int {
	return b.PW.OutShape(b.DW.OutShape(in))
}

// Forward runs dw → bn → relu → pw → bn → relu.
func (b *DWBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := b.Act1.Forward(b.BN1.Forward(b.DW.Forward(x, train), train), train)
	return b.Act2.Forward(b.BN2.Forward(b.PW.Forward(y, train), train), train)
}

// Backward reverses Forward.
func (b *DWBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := b.PW.Backward(b.BN2.Backward(b.Act2.Backward(grad)))
	return b.DW.Backward(b.BN1.Backward(b.Act1.Backward(g)))
}

// InferInto implements the stage inference path: depthwise into an arena
// buffer, then pointwise into dst, each convolution applying its norm and
// activation itself before it stores.
func (b *DWBlock) InferInto(dst, x *tensor.Tensor, a *nn.Arena) {
	n := x.Dim(0)
	oh := tensor.ConvOutDim(x.Dim(2), b.DW.K, b.DW.Stride, b.DW.Pad)
	ow := tensor.ConvOutDim(x.Dim(3), b.DW.K, b.DW.Stride, b.DW.Pad)
	mid := a.Tensor4(b.name, n, b.DW.C, oh, ow)
	b.DW.ForwardIntoBN(mid, x, a, b.BN1, true)
	b.PW.ForwardIntoBN(dst, mid, a, b.BN2, true)
}

// PackNarrow offers the pointwise conv its pack at the depthwise output
// shape.
func (b *DWBlock) PackNarrow(in []int) { b.PW.PackNarrow(b.DW.OutShape(in)) }

// OutChannels returns the pointwise conv's output width.
func (b *DWBlock) OutChannels() int { return b.PW.OutC }

// InChannels returns the depthwise width.
func (b *DWBlock) InChannels() int { return b.DW.C }

// Convs returns the depthwise filter bank, then the pointwise conv.
func (b *DWBlock) Convs() []nn.Weighted { return []nn.Weighted{b.DW, b.PW} }

// Norms returns the batch norm behind each of Convs.
func (b *DWBlock) Norms() []*nn.BatchNorm2D { return []*nn.BatchNorm2D{b.BN1, b.BN2} }

// Flops prices the depthwise conv at 2·k² an output element, the pointwise
// as a 1×1 conv, and norm + ReLU (5 an element) behind each.
func (b *DWBlock) Flops(in []int) float64 {
	mid := b.DW.OutShape(in)
	return 2*float64(b.DW.K*b.DW.K)*float64(mid[0]*mid[1]*mid[2]*mid[3]) +
		elementFlops(mid, 5) + convFlops(b.PW, mid) + elementFlops(b.PW.OutShape(mid), 5)
}

// Group is the pointwise conv's output channel set, ranked by BN2.
func (b *DWBlock) Group() (GroupKind, *nn.Param, bool) { return GroupOutput, b.BN2.Gamma, true }

// PruneGroup keeps only the listed output channels.
func (b *DWBlock) PruneGroup(keep []int) {
	b.PW.PruneOutput(keep)
	b.BN2.Prune(keep)
}

// PruneIn keeps only the listed input channels (depthwise filters, their BN,
// and the pointwise input side).
func (b *DWBlock) PruneIn(keep []int) {
	b.DW.PruneChannels(keep)
	b.BN1.Prune(keep)
	b.PW.PruneInput(keep)
}

// CloneStage deep-copies the block.
func (b *DWBlock) CloneStage() Stage {
	return AssembleDWBlock(b.name, nn.CloneOf(b.DW).(*nn.DepthwiseConv2D), nn.CloneOf(b.BN1).(*nn.BatchNorm2D),
		nn.CloneOf(b.PW).(*nn.Conv2D), nn.CloneOf(b.BN2).(*nn.BatchNorm2D))
}

// MobileNetConfig describes a MobileNet-style network: a stem conv followed
// by depthwise-separable blocks.
type MobileNetConfig struct {
	Name    string
	Stem    int
	Widths  []int // one DWBlock per entry
	Strides []int // parallel to Widths
	Classes int
	InC     int
}

// MobileNetSConfig returns a small MobileNet for 16×16 inputs.
func MobileNetSConfig(classes int) MobileNetConfig {
	return MobileNetConfig{
		Name:    "MobileNet-S",
		Stem:    16,
		Widths:  []int{24, 32, 32, 48, 48, 64},
		Strides: []int{1, 2, 1, 2, 1, 2},
		Classes: classes,
		InC:     3,
	}
}

// BuildMobileNet constructs the staged model.
func BuildMobileNet(cfg MobileNetConfig, rng *tensor.RNG) *Model {
	m := &Model{Name: cfg.Name, Arch: "mobilenet", InC: cfg.InC, Classes: cfg.Classes}
	m.Stages = append(m.Stages, NewConvBlock(cfg.Name+".stem", cfg.InC, cfg.Stem, 1, 1, rng))
	in := cfg.Stem
	for i, w := range cfg.Widths {
		m.Stages = append(m.Stages, NewDWBlock(
			cfg.Name+".dw"+string(rune('0'+i)), in, w, cfg.Strides[i], rng))
		in = w
	}
	m.Head = NewHead(cfg.Name+".head", in, cfg.Classes, rng)
	return m
}
