package zoo

import (
	"fmt"

	"tbnet/internal/nn"
	"tbnet/internal/tensor"
)

// Head is the classifier head: global average pooling followed by a dense
// layer. Both evaluated architectures use it, which keeps channel pruning of
// the final stage simple (each channel contributes exactly one head input).
type Head struct {
	GAP  *nn.GlobalAvgPool
	FC   *nn.Dense
	name string
}

// NewHead builds a classifier head for the given feature width.
func NewHead(name string, channels, classes int, rng *tensor.RNG) *Head {
	return &Head{
		GAP:  nn.NewGlobalAvgPool(name + ".gap"),
		FC:   nn.NewDense(name+".fc", channels, classes, rng),
		name: name,
	}
}

// Name returns the head's diagnostic name.
func (h *Head) Name() string { return h.name }

// Params returns the dense parameters.
func (h *Head) Params() []*nn.Param { return h.FC.Params() }

// OutShape maps [N,C,H,W] to [N, classes].
func (h *Head) OutShape(in []int) []int { return h.FC.OutShape(h.GAP.OutShape(in)) }

// Flops prices the pooling pass plus the dense product for the given feature
// shape.
func (h *Head) Flops(in []int) float64 {
	return elementFlops(in, 1) + 2*float64(h.FC.In)*float64(in[0]*h.FC.Out)
}

// Forward computes logits.
func (h *Head) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return h.FC.Forward(h.GAP.Forward(x, train), train)
}

// Backward reverses Forward.
func (h *Head) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return h.GAP.Backward(h.FC.Backward(grad))
}

// InferInto is the head's preplanned inference path: pooled features go
// through an arena buffer, logits land in dst ([N, classes]).
func (h *Head) InferInto(dst, x *tensor.Tensor, a *nn.Arena) {
	pooled := a.Tensor2(h.name, x.Dim(0), x.Dim(1))
	h.GAP.ForwardInto(pooled, x, a)
	h.FC.ForwardInto(dst, pooled, a)
}

// PruneIn keeps only the listed input channels.
func (h *Head) PruneIn(keep []int) { h.FC.PruneInput(keep, 1) }

// Clone deep-copies the head.
func (h *Head) Clone() *Head {
	return &Head{
		GAP:  nn.NewGlobalAvgPool(h.name + ".gap"),
		FC:   nn.CloneOf(h.FC).(*nn.Dense),
		name: h.name,
	}
}

// Model is a staged CNN: Stages produce feature maps (the TBNet transfer
// points) and Head turns the last feature map into logits.
type Model struct {
	Name    string
	Arch    string // "vgg" or "resnet"
	InC     int
	Classes int
	Stages  []Stage
	Head    *Head
}

// Forward computes logits for x.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, s := range m.Stages {
		x = s.Forward(x, train)
	}
	return m.Head.Forward(x, train)
}

// Backward propagates the logit gradient through head and stages.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	grad = m.Head.Backward(grad)
	for i := len(m.Stages) - 1; i >= 0; i-- {
		grad = m.Stages[i].Backward(grad)
	}
	return grad
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	for _, s := range m.Stages {
		ps = append(ps, s.Params()...)
	}
	return append(ps, m.Head.Params()...)
}

// Reinitialize re-randomizes every parameter in place, preserving the
// architecture: weights get fresh He-normal draws, batch norms reset to
// γ=1/β=0. Used to build TBNet's secure branch with the victim's
// architecture but none of its knowledge.
func (m *Model) Reinitialize(rng *tensor.RNG) {
	for _, s := range m.Stages {
		for _, c := range s.Convs() {
			c.Reinit(rng)
		}
		for _, bn := range s.Norms() {
			bn.Reinit(rng)
		}
	}
	m.Head.FC.Reinit(rng)
}

// Freeze derives, once, what inference at sampleShape reads and a deployed
// model never changes: every batch norm's inverse standard deviations
// (nn.BatchNorm2D.Freeze) and, for each float32 convolution whose product at
// that shape the narrow kernel runs, its packed weights (Stage.PackNarrow).
// Deployment calls it; a frozen model must not be trained after, and its
// clones are not frozen.
func (m *Model) Freeze(sampleShape []int) {
	in := sampleShape
	for _, s := range m.Stages {
		for _, bn := range s.Norms() {
			bn.Freeze()
		}
		s.PackNarrow(in)
		in = s.OutShape(in)
	}
}

// Clone deep-copies the model.
func (m *Model) Clone() *Model {
	out := &Model{Name: m.Name, Arch: m.Arch, InC: m.InC, Classes: m.Classes, Head: m.Head.Clone()}
	out.Stages = make([]Stage, len(m.Stages))
	for i, s := range m.Stages {
		out.Stages[i] = s.CloneStage()
	}
	return out
}

// GroupKind distinguishes the two prunable channel-group varieties.
type GroupKind int

const (
	// GroupOutput is a stage's output channel set (VGG conv blocks); pruning
	// it also narrows the next consumer's input.
	GroupOutput GroupKind = iota
	// GroupInternal is a residual block's hidden channel set between its two
	// convolutions; pruning is contained within the block.
	GroupInternal
)

// String returns a short label.
func (k GroupKind) String() string {
	if k == GroupOutput {
		return "output"
	}
	return "internal"
}

// GroupRef identifies one prunable channel group of a model.
type GroupRef struct {
	Stage int
	Kind  GroupKind
}

// Groups enumerates the model's prunable channel groups in stage order.
func (m *Model) Groups() []GroupRef {
	var out []GroupRef
	for i, s := range m.Stages {
		if kind, _, ok := s.Group(); ok {
			out = append(out, GroupRef{Stage: i, Kind: kind})
		}
	}
	return out
}

// GroupGamma returns the BN scale parameter ranking the group's channels.
func (m *Model) GroupGamma(g GroupRef) *nn.Param {
	kind, gamma, ok := m.Stages[g.Stage].Group()
	if !ok || kind != g.Kind {
		panic(fmt.Sprintf("zoo: stage %d (%s) has no %s group", g.Stage, m.Stages[g.Stage].Name(), g.Kind))
	}
	return gamma
}

// GroupSize returns the group's current channel count.
func (m *Model) GroupSize(g GroupRef) int { return m.GroupGamma(g).Value.Size() }

// ApplyKeep prunes the group down to the listed channels, updating every
// consumer of those channels (the next stage's input or the head).
func (m *Model) ApplyKeep(g GroupRef, keep []int) {
	m.Stages[g.Stage].PruneGroup(keep)
	if g.Kind != GroupOutput {
		return
	}
	if g.Stage+1 < len(m.Stages) {
		m.Stages[g.Stage+1].PruneIn(keep)
	} else {
		m.Head.PruneIn(keep)
	}
}

// StageShapes returns the output shape of every stage for the given input
// shape (including batch), plus the head output shape at the end.
func (m *Model) StageShapes(in []int) [][]int {
	var out [][]int
	cur := in
	for _, s := range m.Stages {
		cur = s.OutShape(cur)
		out = append(out, append([]int(nil), cur...))
	}
	out = append(out, m.Head.OutShape(cur))
	return out
}
