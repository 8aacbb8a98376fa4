package core

import (
	"fmt"

	"tbnet/internal/quant"
	"tbnet/internal/tee"
)

// Precision selects the numeric serving path of a deployment.
type Precision string

const (
	// PrecisionF32 is the float32 reference path.
	PrecisionF32 Precision = "f32"
	// PrecisionInt8 runs both branches through the quantized int8 kernels:
	// weights stored as int8 with per-channel scales, activations quantized
	// dynamically per sample, accumulation in int32, requantized to float32
	// at every layer boundary (BN, bias, and pooling stay float32).
	PrecisionInt8 Precision = "int8"
)

// ParsePrecision maps a user-facing string ("f32", "int8"; "" defaults to
// f32) to a Precision.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f32", "fp32", "float32":
		return PrecisionF32, nil
	case "int8", "i8":
		return PrecisionInt8, nil
	}
	return "", fmt.Errorf("core: unknown precision %q (want f32 or int8): %w", s, ErrShape)
}

// DeployInt8 is Deploy on the int8 serving path: both branches are quantized
// (post-training, symmetric per output channel), attached to int8 kernels,
// and priced under the device's int8 throughput ratio (tee.Int8SpeedupOf).
// The secure footprint shrinks to the quantized parameter bytes plus the
// float32 activation working set — on paging-sensitive backends (SGX) that
// alone can flip the deployment from paging to resident.
func DeployInt8(tb *TwoBranch, device tee.Device, sampleShape []int) (*Deployment, error) {
	if tb == nil || tb.MR == nil || tb.MT == nil {
		return nil, fmt.Errorf("core: deploy of a nil two-branch model: %w", ErrShape)
	}
	if !tb.Finalized {
		return nil, fmt.Errorf("core: deploy requires a finalized model (run FinalizeRollback): %w",
			ErrNotFinalized)
	}
	return DeployQuantized(quant.Quantize(tb.MR), quant.Quantize(tb.MT), tb.Align, device, sampleShape)
}

// DeployQuantized places already-quantized branches (for example loaded from
// a v3 artifact) onto a device. It serves their armed models without a
// copy: an armed model is immutable, so every deployment of the same
// branches, its replicas and artifact saves share the models, the records
// and the alignment maps by reference.
func DeployQuantized(qmr, qmt *quant.QuantizedModel, align [][]int, device tee.Device, sampleShape []int) (*Deployment, error) {
	if qmr == nil || qmt == nil {
		return nil, fmt.Errorf("core: deploy of nil quantized branches: %w", ErrShape)
	}
	tb := &TwoBranch{MR: qmr.Model, MT: qmt.Model, Align: align, Finalized: true}
	return frozen(deployWith(tb, device, sampleShape, nil, qmr, qmt))
}
