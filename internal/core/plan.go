package core

import (
	"fmt"

	"tbnet/internal/nn"
	"tbnet/internal/profile"
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
//   - the static cost profile of both branches cached for every admissible
//     batch size, so Infer stops re-profiling the model on every call;
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
	// mrCost[b] / mtCost[b] are the branch profiles for batch size b+1.
	mrCost, mtCost []profile.ModelCost
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
// for sampleShape (batch included).
func newInferPlan(tb *TwoBranch, sampleShape []int) *inferPlan {
	maxBatch := sampleShape[0]
	p := &inferPlan{
		maxBatch: maxBatch,
		ree:      nn.NewArena(),
		tee:      nn.NewArena(),
		mrCost:   make([]profile.ModelCost, maxBatch),
		mtCost:   make([]profile.ModelCost, maxBatch),
		classes:  tb.MT.Classes,
	}
	shape := append([]int(nil), sampleShape...)
	for b := 1; b <= maxBatch; b++ {
		shape[0] = b
		p.mrCost[b-1] = profile.Profile(tb.MR, shape)
		p.mtCost[b-1] = profile.Profile(tb.MT, shape)
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

// stagePlan precomputes per-stage output dimensions and arena tags.
func stagePlan(m *zoo.Model, sampleShape []int) ([][3]int, []string) {
	dims := make([][3]int, len(m.Stages))
	tags := make([]string, len(m.Stages))
	cur := append([]int(nil), sampleShape...)
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
