package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tbnet/internal/obs"
	"tbnet/internal/quant"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// Enclave command space for the secure-branch trusted application.
const (
	// CmdInput stages the raw input into the TEE (xT₀ = x).
	CmdInput = -1
	// Commands ≥ 0 stage M_R's feature map after that stage index.
	cmdStageBase = 0
)

// errOutOfOrder is returned when the REE violates the stage protocol.
var errOutOfOrder = errors.New("core: enclave invoked out of protocol order")

// secureProgram is the trusted application hosting the secure branch M_T.
// It consumes the input and M_R's per-stage feature maps through the one-way
// channel and releases only the final logits. Intermediate feature maps never
// leave the enclave. All per-stage activations and the gathered channel
// selections live in the deployment plan's secure-side arena, so a protocol
// run performs no allocation in steady state. It only computes: what a run
// costs is its script, charged once the run completes.
type secureProgram struct {
	mt    *zoo.Model
	align [][]int
	plan  *inferPlan
	xT    *tensor.Tensor
	stage int
	ready bool
}

// reset clears all per-inference state so the program can serve a fresh call
// regardless of how (or whether) the previous protocol run completed.
func (p *secureProgram) reset() {
	p.xT = nil
	p.stage = 0
	p.ready = false
}

// Invoke implements tee.Program.
func (p *secureProgram) Invoke(cmd int, payload *tensor.Tensor) error {
	if cmd == CmdInput {
		p.reset()
		p.xT = payload
		return nil
	}
	i := cmd - cmdStageBase
	if i != p.stage || i >= len(p.mt.Stages) || p.xT == nil {
		return fmt.Errorf("%w: cmd %d at stage %d", errOutOfOrder, cmd, p.stage)
	}
	n := p.xT.Dim(0)
	aT := p.plan.stageBuf(p.plan.tee, p.plan.mtTags, p.plan.mtDims, i, n)
	p.mt.Stages[i].InferInto(aT, p.xT, p.plan.tee)
	sel := payload
	if p.align[i] != nil {
		sel = p.plan.gatherBuf(i, n)
		// The gather buffer is preshaped to the secure stage's geometry, so
		// the SameShape check below can no longer catch a bad alignment —
		// enforce the full invariant (batch, spatial dims, and selection
		// width against the secure stage's channel count) before writing.
		if payload.Dim(0) != n || payload.Dim(2) != sel.Dim(2) || payload.Dim(3) != sel.Dim(3) ||
			len(p.align[i]) != aT.Dim(1) {
			return fmt.Errorf("core: transfer shape %v (selecting %d channels) does not match secure branch %v at stage %d: %w",
				payload.Shape(), len(p.align[i]), aT.Shape(), i, ErrShape)
		}
		gatherChannelsInto(sel, payload, p.align[i])
	}
	if !sel.SameShape(aT) {
		return fmt.Errorf("core: transfer shape %v does not match secure branch %v at stage %d: %w",
			sel.Shape(), aT.Shape(), i, ErrShape)
	}
	aT.AddInPlace(sel)
	p.xT = aT
	p.stage++
	p.ready = p.stage == len(p.mt.Stages)
	return nil
}

// Result implements tee.Program: it releases the classification logits.
func (p *secureProgram) Result() (*tensor.Tensor, error) {
	if !p.ready {
		return nil, fmt.Errorf("%w: result requested at stage %d", errOutOfOrder, p.stage)
	}
	out := p.plan.logitsBuf(p.xT.Dim(0))
	p.mt.Head.InferInto(out, p.xT, p.plan.tee)
	return out, nil
}

// Deployment is a finalized TBNet model placed onto a simulated TrustZone
// device: M_R executing in the REE, M_T inside an enclave.
//
// A Deployment is one enclave session: calls are serialized internally, so
// Infer is safe for concurrent use but runs one inference at a time. For
// parallel serving, replicate the session per worker (see Replicate and the
// serve package).
//
// A finalized model is never trained: after Deploy the two branches and the
// alignment maps are immutable, and every session replicated from this one
// reads the same copies. Only ExtractedMR hands out a mutable copy, for the
// attacker.
type Deployment struct {
	Device  tee.Device
	Enclave *tee.Enclave
	mr      *zoo.Model
	prog    *secureProgram
	// plan is the session's preplanned inference state: per-stage activation
	// buffers for both branches and the priced protocol script per batch
	// size.
	plan *inferPlan
	// sampleShape is the [N,C,H,W] shape the secure working set was sized
	// for; inputs must match it in all but the batch dimension, which may
	// not exceed it.
	sampleShape []int
	// SecureBytes is the secure-memory reservation: M_T's parameters, its
	// peak activation working set, and the shared-memory staging buffer.
	SecureBytes int64
	// qmr/qmt are the quantized branches on the int8 path (nil on f32);
	// mr and prog.mt are their armed models. Replicas share them.
	qmr, qmt *quant.QuantizedModel

	// mu serializes the enclave protocol: the staged command sequence keeps
	// mutable per-call state inside the program, so one session can run only
	// one inference at a time.
	mu sync.Mutex
}

// Deploy places a finalized two-branch model onto a device. sampleShape is
// the per-inference input shape (batch included) used to size the secure
// working set; Infer rejects batches larger than sampleShape[0]. It fails
// with ErrNotFinalized for unfinalized models, ErrShape for an unusable
// sample shape, and ErrSecureMemory if the enclave does not fit.
func Deploy(tb *TwoBranch, device tee.Device, sampleShape []int) (*Deployment, error) {
	return frozen(deployWith(tb, device, sampleShape, nil, nil, nil))
}

// freezeMu serializes frozen: two sessions deployed at once from the same
// branches would otherwise both write what the first derives.
var freezeMu sync.Mutex

// frozen returns a new deployment d after deriving, once, what its
// branches' inference reads at the planned sample shape (zoo.Model.Freeze:
// batch norms' inverse standard deviations, the narrow convolutions' packed
// weights). Deploy and DeployQuantized return through it; ReplicateOn and
// Snapshot never do, since their sessions share branches already frozen.
func frozen(d *Deployment, err error) (*Deployment, error) {
	if err != nil {
		return nil, err
	}
	freezeMu.Lock()
	defer freezeMu.Unlock()
	d.mr.Freeze(d.sampleShape)
	d.prog.mt.Freeze(d.sampleShape)
	return d, nil
}

// deployWith is Deploy with an optional shared secure-memory accountant (a
// nil mem gets a fresh per-session budget of device.SecureMemBytes()) and
// the quantized branches qmr/qmt, non-nil on the int8 path, where the
// branches in tb are their armed models.
func deployWith(tb *TwoBranch, device tee.Device, sampleShape []int, mem *tee.SecureMemory,
	qmr, qmt *quant.QuantizedModel) (*Deployment, error) {
	if device == nil {
		return nil, fmt.Errorf("core: deploy onto a nil device: %w", ErrShape)
	}
	if tb == nil || tb.MR == nil || tb.MT == nil {
		return nil, fmt.Errorf("core: deploy of a nil two-branch model: %w", ErrShape)
	}
	if !tb.Finalized {
		return nil, fmt.Errorf("core: deploy requires a finalized model (run FinalizeRollback): %w",
			ErrNotFinalized)
	}
	if len(sampleShape) != 4 {
		return nil, fmt.Errorf("core: sample shape %v is not [N,C,H,W]: %w", sampleShape, ErrShape)
	}
	for _, d := range sampleShape {
		if d < 1 {
			return nil, fmt.Errorf("core: sample shape %v has non-positive dims: %w",
				sampleShape, ErrShape)
		}
	}
	if want := tb.MR.Stages[0].InChannels(); sampleShape[1] != want {
		return nil, fmt.Errorf("core: sample shape %v has %d channels, model expects %d: %w",
			sampleShape, sampleShape[1], want, ErrShape)
	}
	if len(tb.MR.Stages) != len(tb.MT.Stages) {
		return nil, fmt.Errorf("core: M_R has %d stages, M_T %d: %w",
			len(tb.MR.Stages), len(tb.MT.Stages), ErrShape)
	}
	// The plan scripts every admissible batch size with flops at the serving
	// path's throughput (int8 under the device's int8 ratio), so a run
	// charges quantized-kernel figures with no hot-path branching; the
	// deploy-time sizing below reads the full-batch profiles.
	speedup := 1.0
	if qmt != nil {
		speedup = tee.Int8SpeedupOf(device)
	}
	plan := newInferPlan(tb, sampleShape, speedup)
	mrCost, mtCost := plan.mrCost, plan.mtCost
	// Staging buffer: the largest single transfer (input or any M_R stage
	// output after alignment is applied inside the enclave — the full
	// payload is staged, so use M_R's stage output sizes).
	staging := mrCost.Stages[0].InBytes
	for _, s := range mrCost.Stages {
		if s.OutBytes > staging {
			staging = s.OutBytes
		}
	}
	secureBytes := mtCost.SecureFootprintBytes() + staging
	if qmt != nil {
		// Quantized parameters replace the float32 resident set; activations
		// (requantized to float32 at layer boundaries) and staging are
		// unchanged.
		secureBytes = qmt.ParamBytes() + mtCost.PeakActivationBytes() + staging
	}
	if mem == nil {
		mem = tee.NewSecureMemory(device.SecureMemBytes())
	}
	if err := mem.Alloc(secureBytes); err != nil {
		return nil, fmt.Errorf("core: secure branch does not fit: %v: %w", err, ErrSecureMemory)
	}
	prog := &secureProgram{mt: tb.MT, align: tb.Align, plan: plan}
	enclave := tee.NewEnclave(prog)
	// Memory-pressure-sensitive backends (SGX EPC paging) price latency off
	// the session's secure working set.
	enclave.Meter().SetSecureFootprint(secureBytes)
	plan.prices = make([]float64, len(plan.scripts))
	for b, s := range plan.scripts {
		plan.prices[b] = s.Price(device, secureBytes)
	}
	return &Deployment{
		Device:      device,
		Enclave:     enclave,
		mr:          tb.MR,
		prog:        prog,
		plan:        plan,
		sampleShape: append([]int(nil), sampleShape...),
		SecureBytes: secureBytes,
		qmr:         qmr,
		qmt:         qmt,
	}, nil
}

// Replicate creates an independent enclave session for the same finalized
// model, sized for batches of up to batch samples (batch < 1 keeps the
// original sizing). The replica shares the original's immutable branches and
// alignment maps (an int8 deployment's packed weights too) and owns only its
// scratch: the plan's activation arenas, the enclave session with its meter,
// and its secure-memory reservation — so concurrent Infer calls on different
// replicas never contend. The replica reserves a fresh per-session
// secure-memory budget; to account several replicas against one device, use
// ReplicateOn.
func (d *Deployment) Replicate(batch int) (*Deployment, error) {
	return d.ReplicateOn(d.Device, batch, nil)
}

// ReplicateOn is Replicate on the hardware backend device (d.Device keeps
// the original's), drawing the replica's secure-memory
// reservation from the shared accountant mem (nil means a fresh per-session
// budget). The serving layer replicates every worker into one accountant
// sized to the device, so a pool can never collectively overcommit the
// modeled secure memory; the fleet layer fans one deployment template out
// across a heterogeneous set of attached devices.
func (d *Deployment) ReplicateOn(device tee.Device, batch int, mem *tee.SecureMemory) (*Deployment, error) {
	shape := append([]int(nil), d.sampleShape...)
	if batch >= 1 {
		shape[0] = batch
	}
	// The shared branches keep the int8 arming, so a replica neither
	// re-arms nor re-packs them, and the quantized pair keeps the int8
	// pricing on the new device.
	return deployWith(d.Snapshot(), device, shape, mem, d.qmr, d.qmt)
}

// Precision returns the deployment's numeric serving path.
func (d *Deployment) Precision() Precision {
	if d.qmt != nil {
		return PrecisionInt8
	}
	return PrecisionF32
}

// Quantized returns the quantized branches of an int8 deployment (nil, nil
// on the f32 path). Their records and armed models are immutable and shared
// with the live session; callers must not mutate them.
func (d *Deployment) Quantized() (qmr, qmt *quant.QuantizedModel) { return d.qmr, d.qmt }

// SampleShape returns the [N,C,H,W] shape the deployment was sized for.
func (d *Deployment) SampleShape() []int { return append([]int(nil), d.sampleShape...) }

// Snapshot returns the deployed finalized two-branch model — both branches'
// weights and the channel-alignment maps — for persisting
// (serial.SaveDeployment) or re-deploying elsewhere. It copies nothing: the
// branches are the deployment's own immutable ones, shared with every
// session, so the caller must not train or otherwise mutate them (take
// ExtractedMR for a mutable copy of M_R).
func (d *Deployment) Snapshot() *TwoBranch {
	return &TwoBranch{MR: d.mr, MT: d.prog.mt, Align: d.prog.align, Finalized: true}
}

// checkInput validates an inference input against the deployed sizing.
func (d *Deployment) checkInput(x *tensor.Tensor) error {
	if x == nil {
		return fmt.Errorf("core: nil input: %w", ErrShape)
	}
	if x.Rank() != 4 {
		return fmt.Errorf("core: input rank %d, want [N,C,H,W]: %w", x.Rank(), ErrShape)
	}
	for i := 1; i < 4; i++ {
		if x.Dim(i) != d.sampleShape[i] {
			return fmt.Errorf("core: input shape %v does not match deployed sample shape %v: %w",
				x.Shape(), d.sampleShape, ErrShape)
		}
	}
	return d.checkBatch(x.Dim(0))
}

// checkBatch validates a batch size against the deployed capacity.
func (d *Deployment) checkBatch(n int) error {
	if n < 1 || n > d.sampleShape[0] {
		return fmt.Errorf("core: batch %d outside deployed capacity [1,%d]: %w",
			n, d.sampleShape[0], ErrShape)
	}
	return nil
}

// Infer runs one batched inference through the deployed system and returns
// the predicted labels. The REE computes M_R stage by stage, staging each
// feature map into the enclave; the enclave accumulates M_T and releases the
// logits to the caller (the model user).
//
// Each call starts a fresh enclave protocol run (the per-call stage state is
// reset by the input command), and calls are serialized on the session, so
// Infer is safe for concurrent use from multiple goroutines.
func (d *Deployment) Infer(x *tensor.Tensor) ([]int, error) {
	if err := d.checkInput(x); err != nil {
		return nil, err
	}
	return d.inferInto(x, make([]int, x.Dim(0)), nil)
}

// InferInto is Infer writing the predicted labels into the caller-provided
// slice (len ≥ x.Dim(0)) — the allocation-free serving form. Both branches
// run through the deployment plan's preplanned activation buffers, so a
// steady-state call performs no heap allocation at all.
func (d *Deployment) InferInto(x *tensor.Tensor, labels []int) ([]int, error) {
	return d.InferIntoObserved(x, labels, nil)
}

// InferIntoObserved is InferInto additionally filling bd with the host
// wall-time split of the protocol run: REENs accumulates normal-world stage
// compute, TEENs the enclave invocations (input staging, per-stage secure
// compute, result fetch). A nil bd makes it identical to InferInto, with no
// timing overhead. The breakdown is host time for the obs span timeline —
// distinct from ModeledLatency, which is the device cost model's virtual
// time.
func (d *Deployment) InferIntoObserved(x *tensor.Tensor, labels []int, bd *obs.ExecBreakdown) ([]int, error) {
	if err := d.checkInput(x); err != nil {
		return nil, err
	}
	if len(labels) < x.Dim(0) {
		return nil, fmt.Errorf("core: label buffer %d for batch %d: %w", len(labels), x.Dim(0), ErrShape)
	}
	return d.inferInto(x, labels, bd)
}

// inferInto runs the staged protocol; the caller has validated x and sized
// labels. A non-nil bd receives the per-world host wall-time breakdown. A
// completed run commits its script to the session's meter and trace; a run
// that fails part way commits nothing.
func (d *Deployment) inferInto(x *tensor.Tensor, labels []int, bd *obs.ExecBreakdown) (out []int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Shape mismatches that slip past the upfront check (for example an
	// input whose spatial size collapses inside a deeper stage) surface as
	// panics in the tensor kernels; convert them to the public sentinel so
	// a serving layer never dies on a bad request.
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("core: inference failed: %v: %w", r, ErrShape)
		}
	}()
	n := x.Dim(0)
	timed := bd != nil
	var t0 time.Time
	if timed {
		bd.Reset()
		t0 = time.Now()
	}
	if err := d.Enclave.Invoke(CmdInput, x); err != nil {
		return nil, err
	}
	if timed {
		bd.TEENs += time.Since(t0).Nanoseconds()
	}
	aR := x
	for i, s := range d.mr.Stages {
		dst := d.plan.stageBuf(d.plan.ree, d.plan.mrTags, d.plan.mrDims, i, n)
		if timed {
			t0 = time.Now()
		}
		s.InferInto(dst, aR, d.plan.ree)
		if timed {
			bd.REENs += time.Since(t0).Nanoseconds()
		}
		aR = dst
		if timed {
			t0 = time.Now()
		}
		if err := d.Enclave.Invoke(cmdStageBase+i, aR); err != nil {
			return nil, err
		}
		if timed {
			bd.TEENs += time.Since(t0).Nanoseconds()
		}
	}
	if timed {
		t0 = time.Now()
	}
	logits, err := d.Enclave.Result()
	if err != nil {
		return nil, err
	}
	if timed {
		bd.TEENs += time.Since(t0).Nanoseconds()
	}
	d.Enclave.Commit(d.plan.scripts[n-1])
	labels = labels[:n]
	for i := range labels {
		labels[i] = logits.ArgMaxRow(i)
	}
	return labels, nil
}

// Script returns the protocol run of an n-sample inference (1 ≤ n ≤ the
// deployed batch capacity, else ErrShape): the steps a completed run
// charges to the session's meter and records on its trace. The script is
// the plan's own and shared; callers must not modify it.
func (d *Deployment) Script(n int) (tee.Script, error) {
	if err := d.checkBatch(n); err != nil {
		return nil, err
	}
	return d.plan.scripts[n-1], nil
}

// ModeledLatency returns the modeled device seconds of one n-sample
// inference (1 ≤ n ≤ the deployed batch capacity, else ErrShape) without
// running it: Script(n) priced on a fresh meter carrying the session's
// secure footprint, so it is bit for bit what one such run charges.
func (d *Deployment) ModeledLatency(n int) (float64, error) {
	if err := d.checkBatch(n); err != nil {
		return 0, err
	}
	return d.plan.prices[n-1], nil
}

// Reserve sizes the session's arenas for every batch of up to n samples (n
// is capped at the deployed capacity), growing what a run has already drawn
// (nn.Arena.Reserve). After one inference and Reserve(capacity), a batch of
// any size up to the capacity runs without allocating, unless a layer's
// batch is large enough to cross the kernel worker pool.
func (d *Deployment) Reserve(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n = min(n, d.sampleShape[0])
	d.plan.ree.Reserve(n)
	d.plan.tee.Reserve(n)
}

// ExtractedMR returns what the paper's attacker obtains: a deep copy of the
// unsecured branch, which is fully resident in normal-world memory. It is
// the one mutable copy a deployment hands out; the attacker may fine-tune it
// without touching the shared deployed branches. An int8 deployment's copy
// infers but has no float32 weights to train (nn.Weighted.Weight).
func (d *Deployment) ExtractedMR() *zoo.Model { return d.mr.Clone() }
