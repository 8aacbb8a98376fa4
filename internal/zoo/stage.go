// Package zoo builds the DNN architectures the paper evaluates — a VGG-style
// plain convolutional network and ResNet-20 — as *staged* models. A stage is
// the granularity at which TBNet transfers feature maps from the unsecured
// branch (REE) into the secure branch (TEE), and the unit the pruning
// machinery reasons about. Width scales are reduced relative to the paper so
// the full pipeline (train → transfer → prune → attack) runs on CPU in CI
// time; the architectural families and pruning surfaces are unchanged.
package zoo

import (
	"tbnet/internal/nn"
	"tbnet/internal/tensor"
)

// Stage is one feature-map-producing unit of a staged model. After each
// stage, TBNet's two-branch model transfers the REE feature map into the TEE.
// A stage kind answers here, once, everything the rest of the system asks of
// it — quantization, the cost model, pruning and re-initialisation loop over
// these methods and never name a concrete kind.
type Stage interface {
	nn.Layer
	// OutChannels is the stage's current output channel count.
	OutChannels() int
	// InChannels is the stage's current input channel count.
	InChannels() int
	// Convs returns the stage's weight-bearing layers in the order the
	// artifact records them; re-initialisation draws in the same order.
	Convs() []nn.Weighted
	// Norms returns the stage's batch norms.
	Norms() []*nn.BatchNorm2D
	// Flops prices one forward pass (multiply-accumulate ×2) for the given
	// input shape, batch dimension included.
	Flops(in []int) float64
	// Group describes the stage's prunable channel group: its kind and the
	// BN scale vector ranking its channels. ok is false when the stage has
	// none (its width is tied to a neighbour's).
	Group() (kind GroupKind, gamma *nn.Param, ok bool)
	// PruneGroup keeps only the listed channels of that group within the
	// stage; Model.ApplyKeep narrows the consumer of a GroupOutput group.
	PruneGroup(keep []int)
	// PruneIn keeps only the listed input channels.
	PruneIn(keep []int)
	// CloneStage deep-copies the stage.
	CloneStage() Stage
	// InferInto is the stage's preplanned inference path: the eval-mode
	// forward written into dst (shaped per OutShape) with every
	// intermediate drawn from the arena. No backward state is retained.
	InferInto(dst, x *tensor.Tensor, a *nn.Arena)
	// PackNarrow offers each of the stage's convolutions, with the input
	// shape it sees when the stage's is in, its pack for the narrow kernel
	// (nn.Conv2D.PackNarrow). Model.Freeze calls it.
	PackNarrow(in []int)
}

// convFlops prices a convolution: 2 × (kernel volume) per output element,
// over the batch.
func convFlops(c *nn.Conv2D, in []int) float64 {
	out := c.OutShape(in)
	return 2 * float64(c.InC*c.KH*c.KW) * float64(out[0]*out[1]*out[2]*out[3])
}

// elementFlops prices an elementwise pass at perElem operations an element.
func elementFlops(shape []int, perElem float64) float64 {
	n := 1.0
	for _, d := range shape {
		n *= float64(d)
	}
	return n * perElem
}

// ConvBlock is Conv → BN → ReLU with an optional trailing max pool: the
// building unit of the VGG-style models and the ResNet stem.
type ConvBlock struct {
	Conv *nn.Conv2D
	BN   *nn.BatchNorm2D
	Act  *nn.ReLU
	Pool *nn.MaxPool2D // nil when the block does not downsample
	// OutFixed pins the output channels (set on the ResNet stem, whose width
	// is tied to the identity skips of the first residual stage).
	OutFixed bool
	name     string
}

// NewConvBlock builds a conv block; pool > 1 appends a max pool of that size.
func NewConvBlock(name string, inC, outC, stride, pool int, rng *tensor.RNG) *ConvBlock {
	return AssembleConvBlock(name, nn.NewConv2D(name+".conv", inC, outC, 3, stride, 1, false, rng),
		nn.NewBatchNorm2D(name+".bn", outC), pool, false)
}

// AssembleConvBlock builds a conv block around an existing convolution and
// batch norm; pool > 1 appends a max pool of that size.
func AssembleConvBlock(name string, conv *nn.Conv2D, bn *nn.BatchNorm2D, pool int, outFixed bool) *ConvBlock {
	b := &ConvBlock{Conv: conv, BN: bn, Act: nn.NewReLU(name + ".relu"), OutFixed: outFixed, name: name}
	if pool > 1 {
		b.Pool = nn.NewMaxPool2D(name+".pool", pool)
	}
	return b
}

// PoolK returns the trailing max pool's window, 0 when the block does not
// downsample.
func (b *ConvBlock) PoolK() int {
	if b.Pool == nil {
		return 0
	}
	return b.Pool.K
}

// Name returns the stage's diagnostic name.
func (b *ConvBlock) Name() string { return b.name }

// Params returns conv + BN parameters.
func (b *ConvBlock) Params() []*nn.Param {
	return append(b.Conv.Params(), b.BN.Params()...)
}

// OutShape composes the block's layers.
func (b *ConvBlock) OutShape(in []int) []int {
	s := b.BN.OutShape(b.Conv.OutShape(in))
	if b.Pool != nil {
		s = b.Pool.OutShape(s)
	}
	return s
}

// Forward runs conv → bn → relu (→ pool).
func (b *ConvBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := b.Act.Forward(b.BN.Forward(b.Conv.Forward(x, train), train), train)
	if b.Pool != nil {
		y = b.Pool.Forward(y, train)
	}
	return y
}

// Backward reverses Forward.
func (b *ConvBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.Pool != nil {
		grad = b.Pool.Backward(grad)
	}
	return b.Conv.Backward(b.BN.Backward(b.Act.Backward(grad)))
}

// InferInto implements the stage inference path: conv into the destination
// (or an arena buffer when the block pools) with batch norm and ReLU applied
// by the conv as it produces its output, then the optional pool into dst.
func (b *ConvBlock) InferInto(dst, x *tensor.Tensor, a *nn.Arena) {
	if b.Pool == nil {
		b.Conv.ForwardIntoBN(dst, x, a, b.BN, true)
		return
	}
	n := x.Dim(0)
	oh := tensor.ConvOutDim(x.Dim(2), b.Conv.KH, b.Conv.Stride, b.Conv.Pad)
	ow := tensor.ConvOutDim(x.Dim(3), b.Conv.KW, b.Conv.Stride, b.Conv.Pad)
	mid := a.Tensor4(b.name, n, b.Conv.OutC, oh, ow)
	b.Conv.ForwardIntoBN(mid, x, a, b.BN, true)
	b.Pool.ForwardInto(dst, mid, a)
}

// PackNarrow offers the conv its pack at the block's input shape.
func (b *ConvBlock) PackNarrow(in []int) { b.Conv.PackNarrow(in) }

// OutChannels returns the conv's output width.
func (b *ConvBlock) OutChannels() int { return b.Conv.OutC }

// InChannels returns the conv's input width.
func (b *ConvBlock) InChannels() int { return b.Conv.InC }

// Convs returns the block's one convolution.
func (b *ConvBlock) Convs() []nn.Weighted { return []nn.Weighted{b.Conv} }

// Norms returns the block's one batch norm.
func (b *ConvBlock) Norms() []*nn.BatchNorm2D { return []*nn.BatchNorm2D{b.BN} }

// Flops prices conv, batch norm (4 an element), ReLU and the optional pool.
func (b *ConvBlock) Flops(in []int) float64 {
	convOut := b.Conv.OutShape(in)
	f := convFlops(b.Conv, in) + elementFlops(convOut, 4) + elementFlops(convOut, 1)
	if b.Pool != nil {
		f += elementFlops(convOut, 1)
	}
	return f
}

// Group is the conv's output channel set ranked by the BN scale, unless
// OutFixed pins the width.
func (b *ConvBlock) Group() (GroupKind, *nn.Param, bool) {
	return GroupOutput, b.BN.Gamma, !b.OutFixed
}

// PruneGroup keeps only the listed output channels.
func (b *ConvBlock) PruneGroup(keep []int) {
	b.Conv.PruneOutput(keep)
	b.BN.Prune(keep)
}

// PruneIn keeps only the listed input channels.
func (b *ConvBlock) PruneIn(keep []int) { b.Conv.PruneInput(keep) }

// CloneStage deep-copies the block.
func (b *ConvBlock) CloneStage() Stage {
	return AssembleConvBlock(b.name, nn.CloneOf(b.Conv).(*nn.Conv2D), nn.CloneOf(b.BN).(*nn.BatchNorm2D),
		b.PoolK(), b.OutFixed)
}

// ResBlock is a ResNet basic block: two 3×3 convolutions with an identity or
// 1×1-projection skip. WithSkip=false yields the plain "main branch" variant
// the paper uses to initialize M_R for ResNet victims (Sec. 4, "M_R is
// initialized from the main branch (excluding skip connections)").
type ResBlock struct {
	Conv1 *nn.Conv2D
	BN1   *nn.BatchNorm2D
	Act1  *nn.ReLU
	Conv2 *nn.Conv2D
	BN2   *nn.BatchNorm2D
	Act2  *nn.ReLU
	// Projection path for downsampling blocks; nil means identity skip.
	Down   *nn.Conv2D
	DownBN *nn.BatchNorm2D
	// WithSkip disables the skip entirely (plain-chain M_R variant).
	WithSkip bool
	name     string

	lastSkip *tensor.Tensor // cached skip output for backward
	lastIn   *tensor.Tensor

	// midTag and skipTag are the block's arena buffer keys. AssembleResBlock,
	// which every construction path (builders, clones, deserialization) goes
	// through, derives them from the name, so inference never writes the
	// block: deployed branches are shared by every session.
	midTag, skipTag string
}

// NewResBlock builds a basic block. stride 2 creates a projection skip.
func NewResBlock(name string, inC, outC, stride int, withSkip bool, rng *tensor.RNG) *ResBlock {
	conv1 := nn.NewConv2D(name+".conv1", inC, outC, 3, stride, 1, false, rng)
	conv2 := nn.NewConv2D(name+".conv2", outC, outC, 3, 1, 1, false, rng)
	var down *nn.Conv2D
	var downBN *nn.BatchNorm2D
	if withSkip && (stride != 1 || inC != outC) {
		down = nn.NewConv2D(name+".down", inC, outC, 1, stride, 0, false, rng)
		downBN = nn.NewBatchNorm2D(name+".downbn", outC)
	}
	return AssembleResBlock(name, conv1, nn.NewBatchNorm2D(name+".bn1", outC),
		conv2, nn.NewBatchNorm2D(name+".bn2", outC), down, downBN, withSkip)
}

// AssembleResBlock builds a basic block around existing layers; a nil down
// (and downBN) means an identity skip.
func AssembleResBlock(name string, conv1 *nn.Conv2D, bn1 *nn.BatchNorm2D, conv2 *nn.Conv2D, bn2 *nn.BatchNorm2D,
	down *nn.Conv2D, downBN *nn.BatchNorm2D, withSkip bool) *ResBlock {
	return &ResBlock{
		Conv1:    conv1,
		BN1:      bn1,
		Act1:     nn.NewReLU(name + ".relu1"),
		Conv2:    conv2,
		BN2:      bn2,
		Act2:     nn.NewReLU(name + ".relu2"),
		Down:     down,
		DownBN:   downBN,
		WithSkip: withSkip,
		name:     name,
		midTag:   name + ".mid",
		skipTag:  name + ".skip",
	}
}

// Name returns the stage's diagnostic name.
func (b *ResBlock) Name() string { return b.name }

// Params returns all trainable parameters of the block.
func (b *ResBlock) Params() []*nn.Param {
	ps := append(b.Conv1.Params(), b.BN1.Params()...)
	ps = append(ps, b.Conv2.Params()...)
	ps = append(ps, b.BN2.Params()...)
	if b.Down != nil {
		ps = append(ps, b.Down.Params()...)
		ps = append(ps, b.DownBN.Params()...)
	}
	return ps
}

// OutShape composes the main path.
func (b *ResBlock) OutShape(in []int) []int {
	return b.Conv2.OutShape(b.Conv1.OutShape(in))
}

// Forward runs the main path and (optionally) adds the skip. In eval mode no
// backward state is retained, so inputs are not pinned between requests.
func (b *ResBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		b.lastIn = x
	} else {
		b.lastIn, b.lastSkip = nil, nil
	}
	y := b.BN2.Forward(b.Conv2.Forward(b.Act1.Forward(b.BN1.Forward(b.Conv1.Forward(x, train), train), train), train), train)
	if b.WithSkip {
		skip := x
		if b.Down != nil {
			skip = b.DownBN.Forward(b.Down.Forward(x, train), train)
		}
		if train {
			b.lastSkip = skip
		}
		y = y.Clone()
		y.AddInPlace(skip)
	}
	return b.Act2.Forward(y, train)
}

// Backward reverses Forward, splitting the gradient between the main path
// and the skip.
func (b *ResBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := b.Act2.Backward(grad)
	dxMain := b.Conv1.Backward(b.BN1.Backward(b.Act1.Backward(b.Conv2.Backward(b.BN2.Backward(g)))))
	if !b.WithSkip {
		return dxMain
	}
	var dxSkip *tensor.Tensor
	if b.Down != nil {
		dxSkip = b.Down.Backward(b.DownBN.Backward(g))
	} else {
		dxSkip = g
	}
	dxMain.AddInPlace(dxSkip)
	return dxMain
}

// InferInto implements the stage inference path. The main path runs through
// one arena buffer, each conv applying its normalization (and conv1 its
// activation) as it produces its output; the skip (identity or projection)
// is added into dst and the sum rectified in one pass (AddReLUInPlace), the
// same operations as Forward's add and then ReLU, so the two paths agree bit
// for bit.
func (b *ResBlock) InferInto(dst, x *tensor.Tensor, a *nn.Arena) {
	n := x.Dim(0)
	oh := tensor.ConvOutDim(x.Dim(2), b.Conv1.KH, b.Conv1.Stride, b.Conv1.Pad)
	ow := tensor.ConvOutDim(x.Dim(3), b.Conv1.KW, b.Conv1.Stride, b.Conv1.Pad)
	mid := a.Tensor4(b.midTag, n, b.Conv1.OutC, oh, ow)
	b.Conv1.ForwardIntoBN(mid, x, a, b.BN1, true)
	b.Conv2.ForwardIntoBN(dst, mid, a, b.BN2, false)
	if b.WithSkip {
		skip := x
		if b.Down != nil {
			skip = a.Tensor4(b.skipTag, n, b.Down.OutC, oh, ow)
			b.Down.ForwardIntoBN(skip, x, a, b.DownBN, false)
		}
		dst.AddReLUInPlace(skip)
		return
	}
	b.Act2.ForwardInto(dst, dst, a)
}

// PackNarrow offers conv1 and the projection their packs at the block's
// input shape, conv2 its pack at conv1's output shape.
func (b *ResBlock) PackNarrow(in []int) {
	b.Conv1.PackNarrow(in)
	b.Conv2.PackNarrow(b.Conv1.OutShape(in))
	if b.Down != nil {
		b.Down.PackNarrow(in)
	}
}

// OutChannels returns the block's output width.
func (b *ResBlock) OutChannels() int { return b.Conv2.OutC }

// InChannels returns the block's input width.
func (b *ResBlock) InChannels() int { return b.Conv1.InC }

// Convs returns conv1, conv2 and the projection when the block has one.
func (b *ResBlock) Convs() []nn.Weighted {
	if b.Down == nil {
		return []nn.Weighted{b.Conv1, b.Conv2}
	}
	return []nn.Weighted{b.Conv1, b.Conv2, b.Down}
}

// Norms returns the batch norm behind each of Convs.
func (b *ResBlock) Norms() []*nn.BatchNorm2D {
	if b.Down == nil {
		return []*nn.BatchNorm2D{b.BN1, b.BN2}
	}
	return []*nn.BatchNorm2D{b.BN1, b.BN2, b.DownBN}
}

// Flops prices both convolutions with their norms, conv1's ReLU, the
// projection and the residual add when present, and the final ReLU.
func (b *ResBlock) Flops(in []int) float64 {
	mid := b.Conv1.OutShape(in)
	out := b.Conv2.OutShape(mid)
	f := convFlops(b.Conv1, in) + elementFlops(mid, 5) +
		convFlops(b.Conv2, mid) + elementFlops(out, 4)
	if b.Down != nil {
		f += convFlops(b.Down, in) + elementFlops(out, 4)
	}
	if b.WithSkip {
		f += elementFlops(out, 1)
	}
	return f + elementFlops(out, 1)
}

// Group is the hidden channel set between conv1 and conv2, ranked by BN1:
// identity skips tie block outputs across the stage, so only the internal
// channels are prunable.
func (b *ResBlock) Group() (GroupKind, *nn.Param, bool) {
	return GroupInternal, b.BN1.Gamma, true
}

// PruneGroup keeps only the listed internal channels (conv1 outputs /
// conv2 inputs).
func (b *ResBlock) PruneGroup(keep []int) {
	b.Conv1.PruneOutput(keep)
	b.BN1.Prune(keep)
	b.Conv2.PruneInput(keep)
}

// PruneIn keeps only the listed input channels on both paths.
func (b *ResBlock) PruneIn(keep []int) {
	b.Conv1.PruneInput(keep)
	if b.Down != nil {
		b.Down.PruneInput(keep)
	}
}

// CloneStage deep-copies the block.
func (b *ResBlock) CloneStage() Stage {
	var down *nn.Conv2D
	var downBN *nn.BatchNorm2D
	if b.Down != nil {
		down = nn.CloneOf(b.Down).(*nn.Conv2D)
		downBN = nn.CloneOf(b.DownBN).(*nn.BatchNorm2D)
	}
	return AssembleResBlock(b.name, nn.CloneOf(b.Conv1).(*nn.Conv2D), nn.CloneOf(b.BN1).(*nn.BatchNorm2D),
		nn.CloneOf(b.Conv2).(*nn.Conv2D), nn.CloneOf(b.BN2).(*nn.BatchNorm2D), down, downBN, b.WithSkip)
}

// StripSkip returns a copy of the block with the skip connection removed —
// the transformation that derives the plain-chain M_R from a ResNet victim.
func (b *ResBlock) StripSkip() *ResBlock {
	out := b.CloneStage().(*ResBlock)
	out.WithSkip = false
	out.Down = nil
	out.DownBN = nil
	return out
}
