// Package tee is a software model of a TEE-equipped device — the deployment
// substrate the paper evaluates on (a Raspberry Pi 3B running OP-TEE), opened
// up to other hardware backends through the Device interface. Real secure
// hardware is not available in this environment, so the package reproduces
// the three properties the evaluation depends on:
//
//  1. Isolation and information flow: the secure world (TEE) is reachable
//     only through a one-way REE→TEE channel; nothing computed inside the
//     enclave is exposed to normal-world observers (enforced by the API
//     surface and checked by the observation trace).
//  2. Secure-memory scarcity: a capacity-limited accountant tracks the bytes
//     a deployment pins inside the TEE (model parameters + peak activations),
//     reproducing the paper's Fig. 3 memory comparison.
//  3. Asymmetric execution cost: a calibrated device-time model charges
//     compute in each world, world switches, and shared-memory transfer,
//     reproducing the paper's Table 3 latency comparison.
//
// Property 3 is where hardware backends differ: TrustZone serializes the two
// worlds on one cluster, SGX runs the enclave on its own core but pages once
// the secure working set outgrows the EPC, SEV pays heavyweight VM exits, and
// a heterogeneous SoC overlaps a GPU-class REE with a CPU-class TEE. Each
// backend owns those semantics through its Latency hook; the built-in cost
// models live in backends.go alongside the named registry.
package tee

import (
	"fmt"
	"time"
)

// World identifies an execution world of the device.
type World uint8

const (
	// REE is the rich execution environment (normal world).
	REE World = iota
	// TEE is the trusted execution environment (secure world).
	TEE
)

// String returns the conventional name.
func (w World) String() string {
	if w == REE {
		return "REE"
	}
	return "TEE"
}

// Device is the cost model of a hardware backend: the identity, capacity, and
// rate parameters a deployment sizes itself against, plus the Latency hook
// that converts a Meter's accumulated costs into modeled seconds. Latency is
// the interesting degree of freedom — each backend owns its own REE/TEE
// overlap semantics (serialized worlds, parallel worlds, paging penalties)
// rather than inheriting a hardwired formula.
//
// Implementations must be usable by value from multiple goroutines; the
// serving layer shares one Device across its replica pool.
type Device interface {
	// Name is the registry identity (e.g. "rpi3", "sgx-desktop").
	Name() string
	// SecureMemBytes is the secure-memory capacity available to a trusted
	// application. 0 means unlimited (measurement mode).
	SecureMemBytes() int64
	// REEFlopsPerSec is the effective normal-world arithmetic throughput.
	REEFlopsPerSec() float64
	// TEEFlopsPerSec is the secure-world arithmetic throughput.
	TEEFlopsPerSec() float64
	// SwitchSeconds is the cost of one world switch, including the fixed
	// invocation overhead (session lookup, parameter unmarshalling).
	SwitchSeconds() float64
	// TransferBytesPerSec is the shared-memory staging bandwidth for
	// REE→TEE parameter passing.
	TransferBytesPerSec() float64
	// Latency converts a meter's accumulated costs into modeled seconds
	// under this backend's overlap semantics.
	Latency(m *Meter) float64
}

// CostModel is a concrete serialized-worlds Device: REE and TEE compute are
// charged back to back, matching single-cluster TrustZone scheduling where
// the secure world preempts the normal world. It is the parameter block the
// built-in backends are assembled from; embed it and override Latency to
// define a backend with different overlap semantics, then register it with
// Register (or tbnet.RegisterDevice) to make it addressable by name.
type CostModel struct {
	// DeviceName is the registry identity.
	DeviceName string
	// Hardware describes the modeled hardware for human-facing output.
	Hardware string
	// REEFlops is the effective normal-world arithmetic throughput (FLOP/s).
	REEFlops float64
	// TEEFlops is the secure-world throughput (FLOP/s).
	TEEFlops float64
	// SwitchLatency is the cost of one world switch including the fixed
	// invocation overhead.
	SwitchLatency time.Duration
	// TransferRate is the shared-memory staging bandwidth (bytes/s).
	TransferRate float64
	// SecureCapacity is the secure-memory capacity (bytes; 0 = unlimited).
	SecureCapacity int64
	// Int8Speed is the arithmetic-throughput ratio of the int8 serving path
	// over float32 on this hardware (e.g. 4 where 8-bit dot products quadruple
	// per-cycle multiply-accumulate width). 0 means unspecified and falls back
	// to a conservative default of 2 (see Int8Speedup).
	Int8Speed float64
}

// Name implements Device.
func (c CostModel) Name() string { return c.DeviceName }

// Describe returns the human-facing hardware description.
func (c CostModel) Describe() string { return c.Hardware }

// SecureMemBytes implements Device.
func (c CostModel) SecureMemBytes() int64 { return c.SecureCapacity }

// REEFlopsPerSec implements Device.
func (c CostModel) REEFlopsPerSec() float64 { return c.REEFlops }

// TEEFlopsPerSec implements Device.
func (c CostModel) TEEFlopsPerSec() float64 { return c.TEEFlops }

// SwitchSeconds implements Device.
func (c CostModel) SwitchSeconds() float64 { return c.SwitchLatency.Seconds() }

// TransferBytesPerSec implements Device.
func (c CostModel) TransferBytesPerSec() float64 { return c.TransferRate }

// Latency implements Device with fully serialized worlds: compute in both
// worlds, world switches, and staging all add up.
func (c CostModel) Latency(m *Meter) float64 {
	s := m.reeFlops/c.REEFlops + m.teeFlops/c.TEEFlops
	s += float64(m.switches) * c.SwitchLatency.Seconds()
	s += float64(m.transferred) / c.TransferRate
	return s
}

// Int8Speedup returns the int8-over-float32 throughput ratio, defaulting to
// 2 when the model leaves Int8Speed unset — every modeled ISA at least halves
// the bytes per multiply-accumulate, so 2 is the conservative floor.
func (c CostModel) Int8Speedup() float64 {
	if c.Int8Speed <= 0 {
		return 2
	}
	return c.Int8Speed
}

// int8Speeder is implemented by cost models that declare an int8 throughput
// ratio; CostModel provides it, and backends embedding CostModel inherit it.
type int8Speeder interface{ Int8Speedup() float64 }

// deviceUnwrapper is implemented by decorators (WithSecureMem, Unbounded)
// so capability probes like Int8SpeedupOf can reach the wrapped backend.
type deviceUnwrapper interface{ Unwrap() Device }

// Int8SpeedupOf returns the device's int8-over-float32 throughput ratio,
// unwrapping capacity decorators to find the underlying cost model; devices
// that declare nothing get the conservative default of 2.
func Int8SpeedupOf(d Device) float64 {
	for d != nil {
		if s, ok := d.(int8Speeder); ok {
			return s.Int8Speedup()
		}
		u, ok := d.(deviceUnwrapper)
		if !ok {
			break
		}
		d = u.Unwrap()
	}
	return 2
}

// withSecureMem overrides a device's secure-memory capacity, delegating every
// other parameter — including the Latency semantics — to the wrapped backend.
type withSecureMem struct {
	Device
	capacity int64
}

// SecureMemBytes returns the overridden capacity; every other method —
// including Name, so stats and reports stay attributable — is promoted from
// the wrapped backend.
func (d withSecureMem) SecureMemBytes() int64 { return d.capacity }

// Unwrap exposes the wrapped backend so capability probes (Int8SpeedupOf)
// can reach cost-model methods outside the Device interface.
func (d withSecureMem) Unwrap() Device { return d.Device }

// WithSecureMem returns d with its secure-memory capacity replaced by
// capacity bytes (0 = unlimited), leaving all cost semantics untouched.
// Experiments use it to shrink a backend until a deployment no longer fits,
// or to lift the capacity check for pure measurement.
func WithSecureMem(d Device, capacity int64) Device {
	return withSecureMem{Device: d, capacity: capacity}
}

// Unbounded returns d in measurement mode: identical costs, unlimited secure
// memory, so footprints are reported instead of rejected.
func Unbounded(d Device) Device { return WithSecureMem(d, 0) }

// Meter accumulates the virtual cost of protocol runs, as their scripts
// (Charge), for a device to price (Device.Latency). Script.Price charges a
// fresh one per script. It is deliberately decoupled from wall-clock time so
// experiments are deterministic.
type Meter struct {
	reeFlops    float64
	teeFlops    float64
	switches    int
	transferred int64
	// secureFootprint is the deployment's secure working set; backends whose
	// cost depends on secure-memory pressure (SGX EPC paging) read it.
	secureFootprint int64
}

// Charge adds one run's script to the meter, step by step in
// order: a world switch per EvSMC step, each EvTransfer step's bytes, and
// every step's flops to its world. It is the meter's only writer.
func (m *Meter) Charge(s Script) {
	for _, st := range s {
		switch st.Kind {
		case EvSMC:
			m.switches++
		case EvTransfer:
			m.transferred += st.Bytes
		}
		if st.World == REE {
			m.reeFlops += st.Flops
		} else {
			m.teeFlops += st.Flops
		}
	}
}

// Switches returns the number of world switches recorded.
func (m *Meter) Switches() int { return m.switches }

// TransferredBytes returns the total bytes staged into the TEE.
func (m *Meter) TransferredBytes() int64 { return m.transferred }

// Flops returns the accumulated arithmetic per world.
func (m *Meter) Flops(w World) float64 {
	if w == REE {
		return m.reeFlops
	}
	return m.teeFlops
}

// String summarizes the meter.
func (m *Meter) String() string {
	return fmt.Sprintf("ree=%.3gF tee=%.3gF switches=%d xfer=%dB",
		m.reeFlops, m.teeFlops, m.switches, m.transferred)
}
