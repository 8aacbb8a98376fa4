// Package tbnet is the public API of the TBNet reproduction — a neural
// architectural defense framework that protects DNN models deployed on edge
// devices with a Trusted Execution Environment (DAC 2024).
//
// TBNet replaces a well-trained victim model with a two-branch substitution:
// the unsecured branch M_R runs in the rich execution environment (REE) and
// the secure branch M_T runs inside the TEE, connected by one-way
// (REE→TEE) feature-map transfers. Knowledge transfer, iterative two-branch
// pruning, and rollback finalization yield a deployment whose REE-resident
// part is useless to steal, while the TEE part is small and fast.
//
// The API is error-first and option-based. The six-step TBNet flow (train
// victim → two-branch substitution → knowledge transfer → iterative pruning
// → rollback finalization) is driven by the pipeline builder:
//
//	p, err := tbnet.NewPipeline(
//		tbnet.WithArch("vgg"),
//		tbnet.WithDataset("c10"),
//		tbnet.WithSeed(1),
//	)
//	res, err := p.Run(ctx)        // res.TB is finalized
//
// A finalized model deploys onto a simulated hardware backend — the API's
// third pillar, a Device cost model from the named registry — and is served
// concurrently by a fleet: per-device pools of replicated enclave sessions
// behind micro-batching queues. The paper's setting, one edge device, is a
// one-node fleet:
//
//	device, err := tbnet.DeviceByName("rpi3") // or sgx-desktop, sev-server, jetson-tz
//	dep, err := tbnet.Deploy(res.TB, device, []int{1, 3, 16, 16})
//	f, err := tbnet.NewFleet(dep, tbnet.WithDevice(device, 4), tbnet.WithMaxBatch(8))
//	defer f.Close()
//
//	label, err := f.Infer(ctx, x) // single sample, coalesced
//	st := f.Stats()               // fleet-wide; st.PerDevice[0].Serve is the node's own
//
// Each backend owns its own REE/TEE overlap semantics through the
// Device.Latency hook (the paper's rpi3 serializes the worlds; sgx-desktop
// runs them in parallel but pays EPC paging; jetson-tz overlaps a GPU-class
// REE with a CPU-class TEE). Custom cost models embed CostModel and join the
// registry with RegisterDevice.
//
// Repeat WithDevice to fan the deployment out across several backends — one
// replicated pool per attached device — routing every request through a
// pluggable RoutingPolicy (RoundRobin, LeastLoaded, CostAware) with
// deadline- and capacity-based admission control that sheds excess load with
// ErrOverloaded:
//
//	f, err := tbnet.NewFleet(dep,
//		tbnet.WithDevice(rpi3, 2), tbnet.WithDevice(sgx, 4),
//		tbnet.WithPolicy(tbnet.CostAware()), tbnet.WithDeadline(50*time.Millisecond))
//	stats := f.Stats() // per-device + fleet-wide p50/p95/p99, shed, routing
//
// Bad input surfaces as wrapped sentinel errors (ErrShape, ErrNotFinalized,
// ErrSecureMemory, ErrServerClosed, ErrBadOption) that callers match with
// errors.Is — public entry points do not panic.
//
// The unit that persists is the deployment artifact (SaveDeployment,
// LoadDeploymentOn, Registry). Everything underneath — the tensor/NN/optimizer
// stack, the synthetic CIFAR-like datasets, the TrustZone device model, the
// attacks, and the experiment harness that regenerates the paper's tables and
// figures — lives in the internal packages.
package tbnet

import (
	"fmt"

	"tbnet/internal/attack"
	"tbnet/internal/core"
	"tbnet/internal/data"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// Re-exported model and training types.
type (
	// Model is a staged CNN (the victim, or one TBNet branch).
	Model = zoo.Model
	// TwoBranch is TBNet's two-branch substitution model.
	TwoBranch = core.TwoBranch
	// TrainConfig carries optimization hyperparameters.
	TrainConfig = core.TrainConfig
	// PruneResult is the iterative pruning history behind a finalized model.
	PruneResult = core.PruneResult
	// Deployment is a finalized model placed on a simulated device.
	Deployment = core.Deployment
	// Dataset is an in-memory labeled image set.
	Dataset = data.Dataset
	// Device is the hardware-backend cost model a deployment is priced on:
	// identity, secure-memory capacity, per-world FLOPS rates, switch and
	// transfer costs, plus the Latency hook each backend implements with its
	// own REE/TEE overlap semantics. Built-ins are addressable by name
	// through DeviceByName; user-defined cost models join via RegisterDevice.
	Device = tee.Device
	// CostModel is a concrete serialized-worlds Device — the parameter block
	// custom backends embed (overriding Latency for different overlap
	// semantics) before registering themselves with RegisterDevice.
	CostModel = tee.CostModel
	// Meter accumulates the per-world compute, world-switch, and transfer
	// costs of a workload; a Device's Latency hook converts it to modeled
	// seconds. Custom backends read it through Flops/Switches/
	// TransferredBytes/SecureFootprint.
	Meter = tee.Meter
	// World identifies an execution world of a device (REE or TEE).
	World = tee.World
	// RNG is the deterministic random generator used throughout.
	RNG = tensor.RNG
	// Tensor is the dense float32 tensor type.
	Tensor = tensor.Tensor
	// FineTuneConfig configures the fine-tuning attack.
	FineTuneConfig = attack.FineTuneConfig
)

// Execution worlds of a device, for reading a Meter's per-world costs.
const (
	// REE is the rich execution environment (normal world).
	REE = tee.REE
	// TEE is the trusted execution environment (secure world).
	TEE = tee.TEE
)

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// NewTensor returns a zero-filled tensor with the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// DefaultTrainConfig returns the paper's hyperparameters (SGD 0.1/0.9/1e-4,
// λ=1e-4, lr ×0.1 every 100 epochs) for the given epoch budget.
func DefaultTrainConfig(epochs int) TrainConfig { return core.DefaultTrainConfig(epochs) }

// Devices returns every registered hardware backend, sorted by name. The
// built-ins are "rpi3" (the paper's testbed: TrustZone with serialized
// worlds), "sgx-desktop" (parallel worlds with an EPC paging penalty),
// "sev-server" (confidential-VM: large secure memory, heavyweight exits),
// and "jetson-tz" (GPU-class REE overlapping a CPU-class TEE).
func Devices() []Device { return tee.Devices() }

// DeviceByName returns the registered backend with the given name. Unknown
// names fail with an error wrapping ErrBadOption that lists the registered
// names.
func DeviceByName(name string) (Device, error) {
	d, err := tee.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadOption, err)
	}
	return d, nil
}

// RegisterDevice adds a user-defined device cost model under its Name, making
// it addressable by DeviceByName and included in Devices (and therefore in
// the cross-device experiment artifacts). Duplicate or empty names, and
// non-positive FLOPS or transfer rates, fail with an error wrapping
// ErrBadOption.
func RegisterDevice(d Device) error {
	if err := tee.Register(d); err != nil {
		return fmt.Errorf("%w: %w", ErrBadOption, err)
	}
	return nil
}

// Unbounded returns d in measurement mode: identical cost semantics with the
// secure-memory capacity check lifted, so deployments report their footprint
// instead of failing with ErrSecureMemory.
func Unbounded(d Device) Device { return tee.Unbounded(d) }

// RaspberryPi3 returns the cost model of the paper's testbed — the registered
// "rpi3" backend.
func RaspberryPi3() Device { return tee.RaspberryPi3() }

// Deploy places a finalized model onto a simulated device.
func Deploy(tb *TwoBranch, device Device, sampleShape []int) (*Deployment, error) {
	return core.Deploy(tb, device, sampleShape)
}

// Precision names a deployment's numeric serving path: float32 (the default)
// or post-training-quantized int8.
type Precision = core.Precision

// The two serving precisions.
const (
	// PrecisionF32 is the float32 reference path.
	PrecisionF32 = core.PrecisionF32
	// PrecisionInt8 is the quantized path: int8 weights with per-channel
	// scales, integer matmuls, float32 requantization at layer boundaries.
	PrecisionInt8 = core.PrecisionInt8
)

// ParsePrecision resolves a user-facing precision name ("f32", "fp32",
// "float32", "int8", "i8", or empty for the default) to a Precision; unknown
// names fail with an error wrapping ErrShape.
func ParsePrecision(s string) (Precision, error) { return core.ParsePrecision(s) }

// DeployInt8 quantizes a finalized model (symmetric per-output-channel int8
// weights) and places it onto a simulated device on the int8 serving path:
// integer convolutions and matmuls priced at the backend's int8 throughput
// ratio, with a secure-memory footprint computed from the quantized working
// set. Accuracy typically tracks the f32 deployment within a label flip on
// near-ties; latency is strictly lower on every built-in backend.
func DeployInt8(tb *TwoBranch, device Device, sampleShape []int) (*Deployment, error) {
	return core.DeployInt8(tb, device, sampleShape)
}

// AttackDirectUse evaluates a stolen M_R as a standalone classifier.
func AttackDirectUse(stolen *Model, test *Dataset, batchSize int) float64 {
	return attack.DirectUse(stolen, test, batchSize)
}

// AttackFineTune retrains a copy of the stolen branch on a data fraction and
// returns its test accuracy. The branch must hold float32 weights: an int8
// deployment's ExtractedMR has none to train, and AttackFineTune panics
// naming its int8 layer.
func AttackFineTune(stolen *Model, train, test *Dataset, cfg FineTuneConfig) float64 {
	return attack.FineTune(stolen, train, test, cfg)
}
