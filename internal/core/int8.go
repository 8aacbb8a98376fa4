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
	if tb == nil || tb.MR == nil || tb.MT == nil || !tb.Finalized {
		return Deploy(tb, device, sampleShape) // which refuses it
	}
	qtb := &TwoBranch{MR: quant.Quantize(tb.MR), MT: quant.Quantize(tb.MT), Align: tb.Align, Finalized: true}
	return Deploy(qtb, device, sampleShape)
}
