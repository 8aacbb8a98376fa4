// Package defense implements the TEE-based deployment strategies the paper
// compares against (Sec. 2.3): full-TEE execution (the evaluation baseline of
// Tables 3 and Fig. 3), DarkneTZ-style depth partitioning, ShadowNet-style
// linear-transformation outsourcing, and MirrorNet-style companion models.
// Each strategy places a victim model on a simulated TrustZone device and
// reports the same three quantities: secure-memory footprint, plaintext
// parameter exposure in the REE, and modeled inference latency.
//
// A strategy is a plan — a secure-footprint formula, how many leading stages
// compute in the REE, and what trusted work a stage's crossing buys — that
// states its run once, at Place, as a tee.Script, the form TBNet's own
// deployment states its run in. The script is the only definition of the
// run's world crossings: Infer charges and records it, and Price prices it
// with TBNet's pricing function. So a crossing always precedes the TEE work
// it feeds (a depth split of 0 stages its input before the first TEE stage),
// full-TEE records one EvTEECompute per stage rather than one for the whole
// victim, and EvResult carries the released logits' size.
//
// FullTEE and DarkneTZ execute the real network in their placement;
// ShadowNet and MirrorNet execute the real network while metering the
// world/transfer pattern their papers describe (the weight-transformation
// and companion-verification arithmetic is cost-modeled, not re-implemented —
// their accuracy is the victim's by construction).
package defense

import (
	"fmt"

	"tbnet/internal/profile"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// Placement is a victim model deployed on a device under some strategy.
type Placement struct {
	// Strategy is the placing strategy's Name.
	Strategy string
	// Device is the backend the placement is priced on.
	Device tee.Device
	// SecureBytes is the secure-memory reservation.
	SecureBytes int64
	// ExposedParamBytes counts victim parameters resident in REE plaintext
	// (ShadowNet's transformed weights count as exposed: the paper cites the
	// recovery attack of Zhang et al.).
	ExposedParamBytes int64
	// ExposedArch reports whether the victim's architecture is readable from
	// the REE-resident part.
	ExposedArch bool
	enclave     *tee.Enclave
	world       *secureWorld
	// script is the plan's protocol run of one sample; batch is the
	// sample-shape batch the placement is priced at.
	script tee.Script
	batch  int
}

// Infer runs one inference — the plan's leading stages compute in the REE,
// their output crosses through the enclave (every stage's under an assisted
// plan, the last one's — or the input, when the split is 0 — otherwise), and
// the enclave releases the logits — then charges and records the run's
// script.
func (p *Placement) Infer(x *tensor.Tensor) []int {
	w := p.world
	cur := x
	for i, s := range w.m.Stages[:w.plan.split] {
		cur = s.Forward(cur, false)
		if w.plan.assist != "" {
			_ = p.enclave.Invoke(i, cur) // secureWorld.Invoke never fails
		}
	}
	if w.plan.assist == "" {
		_ = p.enclave.Invoke(w.plan.split, cur) // secureWorld.Invoke never fails
	}
	logits, _ := p.enclave.Result() // secureWorld.Result never fails
	p.enclave.Commit(batched(p.script, x.Dim(0)))
	return argmaxLabels(logits)
}

// Script returns the protocol run of one inference at the placement's sample
// shape: what the architecture-inference attack sees of it (AttackerView)
// and what it costs (Price).
func (p *Placement) Script() tee.Script { return batched(p.script, p.batch) }

// Price returns the modeled seconds of one inference at the placement's
// sample shape on its device.
func (p *Placement) Price() float64 { return p.Script().Price(p.Device, p.SecureBytes) }

// Strategy places a victim model onto a device.
type Strategy interface {
	// Name identifies the strategy (and its parameters) in reports.
	Name() string
	// Place sizes the strategy's secure footprint for sampleShape inputs,
	// reserves it on the device and returns the runnable placement.
	Place(victim *zoo.Model, device tee.Device, sampleShape []int) (*Placement, error)
}

// plan is one strategy's placement of one victim.
type plan struct {
	strategy    string
	secure      int64 // secure-memory footprint
	exposed     int64 // parameter bytes in REE plaintext
	exposedArch bool
	// split is the number of leading stages that compute in the REE; the
	// rest, and always the head, compute in the TEE.
	split int
	// assist, when non-empty, sends every REE stage's output into the TEE
	// and names the trusted work done on it there (the TEE compute step is
	// labeled stage name + assist), costing perElem flops per output element
	// plus stageShare of the stage's own flops. When empty only the feature
	// map at the split crosses.
	assist              string
	perElem, stageShare float64
}

// script is the plan's protocol run of one inference whose profile is c:
// each REE stage reads its weights and computes, and crosses with its
// output (every stage under an assisted plan, then the trusted work it
// buys); otherwise the feature map at the split (the input at split 0)
// crosses once and the remaining stages compute in the TEE; the head
// computes there and the logits are released.
func (pl plan) script(c profile.ModelCost) tee.Script {
	var s tee.Script
	for _, st := range c.Stages[:pl.split] {
		s = append(s, tee.Step{Kind: tee.EvREEWeightAccess, World: tee.REE, Label: st.Name, Bytes: st.ParamBytes},
			tee.Step{Kind: tee.EvREECompute, World: tee.REE, Label: st.Name, Flops: st.Flops, Bytes: st.OutBytes})
		if pl.assist != "" {
			s = append(s.Cross(st.Name, st.OutBytes), tee.Step{Kind: tee.EvTEECompute, World: tee.TEE,
				Label: st.Name + pl.assist, Flops: pl.perElem*float64(st.OutBytes/4) + pl.stageShare*st.Flops})
		}
	}
	if pl.assist == "" {
		if pl.split == 0 {
			s = s.Cross("input", c.Stages[0].InBytes)
		} else {
			s = s.Cross("boundary", c.Stages[pl.split-1].OutBytes)
		}
		for _, st := range c.Stages[pl.split:] {
			s = append(s, tee.Step{Kind: tee.EvTEECompute, World: tee.TEE, Label: st.Name, Flops: st.Flops})
		}
	}
	return append(s, tee.Step{Kind: tee.EvTEECompute, World: tee.TEE, Label: "head", Flops: c.Head.Flops},
		tee.Step{Kind: tee.EvResult, World: tee.TEE, Label: "release", Bytes: c.Head.OutBytes})
}

// batched returns a one-sample script s for a batch of n samples. Every
// flop and activation byte figure is per sample and scales by n, exactly
// (they are integers, or quarters of one, far below 2^53); a weight read is
// once per batch, and so is every crossing.
func batched(s tee.Script, n int) tee.Script {
	out := make(tee.Script, len(s))
	for i, st := range s {
		st.Flops *= float64(n)
		if st.Kind != tee.EvREEWeightAccess {
			st.Bytes *= int64(n)
		}
		out[i] = st
	}
	return out
}

// place is the one constructor: it reserves the plan's footprint on the
// device, loads a private clone of the victim behind a fresh enclave and
// scripts the plan's run of one sample of sampleShape.
func place(victim *zoo.Model, device tee.Device, sampleShape []int, pl plan) (*Placement, error) {
	mem := tee.NewSecureMemory(device.SecureMemBytes())
	if err := mem.Alloc(pl.secure); err != nil {
		return nil, fmt.Errorf("defense: %s placement: %w", pl.strategy, err)
	}
	w := &secureWorld{m: victim.Clone(), plan: pl}
	enc := tee.NewEnclave(w)
	// Memory-pressure-sensitive backends (SGX EPC paging) price the footprint.
	enc.Meter().SetSecureFootprint(pl.secure)
	one := append([]int{1}, sampleShape[1:]...)
	return &Placement{
		Strategy:          pl.strategy,
		Device:            device,
		SecureBytes:       pl.secure,
		ExposedParamBytes: pl.exposed,
		ExposedArch:       pl.exposedArch,
		enclave:           enc,
		world:             w,
		script:            pl.script(profile.Profile(victim, one)),
		batch:             sampleShape[0],
	}, nil
}

// secureWorld is the trusted side of a placement (a tee.Program): the stages
// from the plan's split on and the head. An assisted crossing's trusted work
// is cost-modeled (its script step), not computed.
type secureWorld struct {
	m    *zoo.Model
	plan plan
	// cur is the feature map last staged in or computed here.
	cur *tensor.Tensor
}

// Invoke implements tee.Program. stage is the index the payload belongs to:
// under an assisted plan the REE stage that produced it, otherwise the first
// stage the TEE computes.
func (w *secureWorld) Invoke(stage int, payload *tensor.Tensor) error {
	w.cur = payload
	if w.plan.assist != "" {
		return nil
	}
	for _, s := range w.m.Stages[stage:] {
		w.cur = s.Forward(w.cur, false)
	}
	return nil
}

// Result implements tee.Program: the private classifier head.
func (w *secureWorld) Result() (*tensor.Tensor, error) {
	return w.m.Head.Forward(w.cur, false), nil
}

func argmaxLabels(logits *tensor.Tensor) []int {
	out := make([]int, logits.Dim(0))
	for i := range out {
		out[i] = logits.ArgMaxRow(i)
	}
	return out
}

// FullTEE executes the entire victim inside the enclave — the paper's
// baseline: full protection, worst latency and secure-memory footprint. It
// is the depth partition with nothing left in the REE.
type FullTEE struct{}

// Name implements Strategy.
func (FullTEE) Name() string { return "full-tee" }

// Place implements Strategy.
func (f FullTEE) Place(victim *zoo.Model, device tee.Device, sampleShape []int) (*Placement, error) {
	return place(victim, device, sampleShape, depthPlan(f.Name(), profile.Profile(victim, sampleShape), 0))
}

// DarkneTZ partitions by depth: the first SplitAt stages run in the REE in
// plaintext; the remaining stages and the head run inside the enclave. The
// REE-resident layers (weights and feature maps) are exposed — the weakness
// the paper exploits in Sec. 2.3.
type DarkneTZ struct {
	// SplitAt is the number of leading stages left in the REE.
	SplitAt int
}

// Name implements Strategy.
func (d DarkneTZ) Name() string { return fmt.Sprintf("darknetz-split%d", d.SplitAt) }

// Place implements Strategy.
func (d DarkneTZ) Place(victim *zoo.Model, device tee.Device, sampleShape []int) (*Placement, error) {
	if d.SplitAt < 0 || d.SplitAt > len(victim.Stages) {
		return nil, fmt.Errorf("defense: split %d out of range (%d stages)", d.SplitAt, len(victim.Stages))
	}
	return place(victim, device, sampleShape, depthPlan(d.Name(), profile.Profile(victim, sampleShape), d.SplitAt))
}

// depthPlan sizes a depth partition: the enclave holds the parameters of the
// stages from split on and of the head, their peak activation working set,
// and a staging buffer for the feature map (or input) crossing the boundary.
func depthPlan(name string, cost profile.ModelCost, split int) plan {
	secure := cost.Head.ParamBytes
	peak := cost.Head.InBytes + cost.Head.OutBytes
	var exposed int64
	for i, s := range cost.Stages {
		if i < split {
			exposed += s.ParamBytes
			continue
		}
		secure += s.ParamBytes
		if v := s.InBytes + s.OutBytes; v > peak {
			peak = v
		}
	}
	staging := cost.Stages[0].InBytes
	if split > 0 {
		staging = cost.Stages[split-1].OutBytes
	}
	return plan{strategy: name, secure: secure + peak + staging, exposed: exposed, exposedArch: split > 0, split: split}
}

// ShadowNet outsources every convolution to the REE with linearly
// transformed weights and restores the results inside the enclave. All
// (transformed) weights live in the REE; the enclave holds only the restore
// masks and per-layer scratch. Every stage costs two boundary crossings.
type ShadowNet struct{}

// Name implements Strategy.
func (ShadowNet) Name() string { return "shadownet" }

// Place implements Strategy.
func (s ShadowNet) Place(victim *zoo.Model, device tee.Device, sampleShape []int) (*Placement, error) {
	cost := profile.Profile(victim, sampleShape)
	// Enclave holds restore parameters (≈ one scale/permutation per channel,
	// small) plus the largest stage activation for the restore step.
	var peak, restoreParams int64
	for _, s := range cost.Stages {
		if v := s.InBytes + s.OutBytes; v > peak {
			peak = v
		}
		restoreParams += s.OutBytes / 64 // per-channel restore metadata
	}
	return place(victim, device, sampleShape, plan{
		strategy:    s.Name(),
		secure:      restoreParams + peak + cost.Head.ParamBytes,
		exposed:     cost.TotalParamBytes() - cost.Head.ParamBytes,
		exposedArch: true,
		split:       len(victim.Stages),
		// Convolution arithmetic happens in the REE on transformed weights;
		// the enclave applies the linear restoration.
		assist: "/restore", perElem: 2,
	})
}

// MirrorNet keeps the whole victim backbone in the REE and a lightweight
// companion ("MirrorNet head") in the enclave with one-way REE→TEE
// communication. The victim's architecture and backbone weights are exposed —
// the criticism motivating TBNet.
type MirrorNet struct{}

// Name implements Strategy.
func (MirrorNet) Name() string { return "mirrornet" }

// Place implements Strategy.
func (m MirrorNet) Place(victim *zoo.Model, device tee.Device, sampleShape []int) (*Placement, error) {
	cost := profile.Profile(victim, sampleShape)
	// Enclave: companion branch ≈ 25% of backbone params + head + staging.
	var staging int64
	for _, s := range cost.Stages {
		if s.OutBytes > staging {
			staging = s.OutBytes
		}
	}
	companion := cost.TotalParamBytes()/4 + cost.Head.ParamBytes
	return place(victim, device, sampleShape, plan{
		strategy:    m.Name(),
		secure:      companion + cost.PeakActivationBytes()/2 + staging,
		exposed:     cost.TotalParamBytes(),
		exposedArch: true,
		split:       len(victim.Stages),
		// One-way feature forwarding to the companion.
		assist: "/companion", stageShare: 0.25,
	})
}
