package core

import (
	"fmt"

	"tbnet/internal/nn"
	"tbnet/internal/profile"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// inferPlan is the preplanned steady-state inference state of one deployed
// session, built once at Deploy time:
//
//   - one activation arena per world (the REE's M_R chain and the enclave's
//     M_T chain draw their per-stage buffers from separate arenas, matching
//     the isolation story), each buffer sized lazily for the largest batch
//     it has served (a smaller batch is a view of it) and reused forever
//     after;
//   - the protocol script of every admissible batch size (tee.Script: the
//     steps a run of that batch takes, what it costs and shows) with its
//     price on the deployed device, so nothing re-profiles the model or
//     restates the protocol order;
//   - per-stage buffer tags and output dimensions precomputed, so the hot
//     path performs no string building and no shape recomputation.
//
// A plan belongs to exactly one Deployment and inherits its serialization:
// the session mutex makes one plan per session race-free by construction.
// The modeled secure-memory reservation is unchanged by the plan — it still
// prices the layer-by-layer executor of the paper (parameters + peak
// activation working set + staging buffer); the plan's host-side buffers are
// a simulation implementation detail.
type inferPlan struct {
	maxBatch int
	// ree and tee are the per-world activation arenas.
	ree, tee *nn.Arena
	// mrCost / mtCost are the branch profiles at the full batch, which the
	// secure sizing reads.
	mrCost, mtCost profile.ModelCost
	// scripts[b] is the protocol run of a batch of b+1 samples; prices[b]
	// is its modeled seconds on the deployed device.
	scripts []tee.Script
	prices  []float64
	// mrDims[i] / mtDims[i] are stage i's output [C,H,W].
	mrDims, mtDims [][3]int
	// mrTags[i] / mtTags[i] key stage i's output buffer in its arena
	// (prefixed so they never collide with the stage-internal buffers the
	// layers key by their own names).
	mrTags, mtTags []string
	// gatherTags[i] keys the enclave-side channel-gather buffer for stage i
	// ("" when the stage transfers the full feature map).
	gatherTags []string
	// classes is the head's output width.
	classes int
}

// newInferPlan precomputes the plan for a finalized two-branch model sized
// for sampleShape (batch included), scripting flops at the serving path's
// speedup over float32 (1 for f32). Deploy prices the scripts once the
// secure footprint is known.
func newInferPlan(tb *TwoBranch, sampleShape []int, speedup float64) *inferPlan {
	maxBatch := sampleShape[0]
	p := &inferPlan{
		maxBatch: maxBatch,
		ree:      nn.NewArena(),
		tee:      nn.NewArena(),
		scripts:  make([]tee.Script, maxBatch),
		classes:  tb.MT.Classes,
	}
	shape := append([]int(nil), sampleShape...)
	for b := 1; b <= maxBatch; b++ {
		shape[0] = b
		p.mrCost, p.mtCost = profile.Profile(tb.MR, shape), profile.Profile(tb.MT, shape)
		p.scripts[b-1] = protocol(p.mrCost, p.mtCost, speedup)
	}
	p.mrDims, p.mrTags = stagePlan(tb.MR, sampleShape)
	p.mtDims, p.mtTags = stagePlan(tb.MT, sampleShape)
	p.gatherTags = make([]string, len(tb.MT.Stages))
	for i, s := range tb.MT.Stages {
		if i < len(tb.Align) && tb.Align[i] != nil {
			p.gatherTags[i] = "gather:" + s.Name()
		}
	}
	return p
}

// protocol is TBNet's protocol run of one batch, from the two branches'
// profiles at that batch: the input crosses into the enclave; then, stage
// by stage, M_R computes in the REE, its feature map crosses, and M_T
// computes in the TEE; then M_T's head computes and the logits are
// released to the model user. Flops are divided by the serving path's
// speedup over float32 (the device's int8 ratio, 1 for f32), so the meter
// prices the quantized kernels; bytes are not, as activations stage
// through shared memory as float32 either way.
func protocol(mr, mt profile.ModelCost, speedup float64) tee.Script {
	s := make(tee.Script, 0, 4*len(mr.Stages)+4).Cross("input", mr.Stages[0].InBytes)
	for i, r := range mr.Stages {
		t := mt.Stages[i]
		s = append(s, tee.Step{Kind: tee.EvREECompute, World: tee.REE, Label: r.Name, Flops: r.Flops / speedup, Bytes: r.OutBytes})
		s = append(s.Cross(r.Name, r.OutBytes),
			tee.Step{Kind: tee.EvTEECompute, World: tee.TEE, Label: t.Name, Flops: t.Flops / speedup, Bytes: t.OutBytes})
	}
	return append(s, tee.Step{Kind: tee.EvTEECompute, World: tee.TEE, Label: mt.Head.Name, Flops: mt.Head.Flops / speedup},
		tee.Step{Kind: tee.EvResult, World: tee.TEE, Label: "release", Bytes: mt.Head.OutBytes})
}

// stagePlan precomputes per-stage output dimensions and arena tags.
func stagePlan(m *zoo.Model, sampleShape []int) ([][3]int, []string) {
	dims := make([][3]int, len(m.Stages))
	tags := make([]string, len(m.Stages))
	cur := sampleShape
	for i, s := range m.Stages {
		cur = s.OutShape(cur)
		dims[i] = [3]int{cur[1], cur[2], cur[3]}
		tags[i] = "out:" + s.Name()
	}
	return dims, tags
}

// stageBuf returns the preplanned output buffer for stage i of the given
// branch arena at batch size n.
func (p *inferPlan) stageBuf(a *nn.Arena, tags []string, dims [][3]int, i, n int) *tensor.Tensor {
	d := dims[i]
	return a.Tensor4(tags[i], n, d[0], d[1], d[2])
}

// logitsBuf returns the preplanned head output buffer at batch size n.
func (p *inferPlan) logitsBuf(n int) *tensor.Tensor {
	return p.tee.Tensor2("out:head", n, p.classes)
}

// gatherBuf returns the preplanned channel-gather buffer for stage i at
// batch size n (the gathered selection has the secure stage's geometry).
func (p *inferPlan) gatherBuf(i, n int) *tensor.Tensor {
	d := p.mtDims[i]
	return p.tee.Tensor4(p.gatherTags[i], n, d[0], d[1], d[2])
}

// gatherChannelsInto is gatherChannels writing into a preplanned buffer:
// channels idx of x ([N,C,H,W]) copied into dst ([N,len(idx),H,W]).
func gatherChannelsInto(dst, x *tensor.Tensor, idx []int) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	hw := h * w
	for i := 0; i < n; i++ {
		for j, ch := range idx {
			if ch >= c {
				panic(fmt.Sprintf("core: alignment index %d out of %d channels", ch, c))
			}
			copy(dst.Data()[(i*len(idx)+j)*hw:(i*len(idx)+j+1)*hw],
				x.Data()[(i*c+ch)*hw:(i*c+ch+1)*hw])
		}
	}
}
