package tee

import (
	"tbnet/internal/tensor"
)

// Program is the trusted-application logic hosted inside an Enclave (for
// TBNet, the secure-branch runtime). Its interface is deliberately one-way:
// Invoke consumes data and returns only an error — there is no way for a
// normal-world caller to read intermediate state back out. The final
// classification is released through Result, modeling the paper's output
// path from M_T to the *model user* (not to REE memory an attacker can read).
type Program interface {
	// Invoke is the REE-side entry point (the SMC): the payload crosses
	// shared memory and the command executes inside the secure world. No
	// data flows back.
	Invoke(cmd int, payload *tensor.Tensor) error
	// Result releases the program's output to the model user. This is the
	// only data path out of the enclave; it does not pass through
	// REE-readable memory in the modeled system.
	Result() (*tensor.Tensor, error)
}

// Enclave is one loaded trusted application: a Program plus its session's
// meter and observation trace. The normal world computes through the
// Program's Invoke and Result; what a completed run cost and what it showed
// is its script, which Commit charges and records in one call.
type Enclave struct {
	Program
	meter Meter
	trace Trace
}

// NewEnclave loads a program into a fresh enclave session.
func NewEnclave(prog Program) *Enclave { return &Enclave{Program: prog} }

// Commit charges a completed run's script to the meter and records it on
// the trace.
func (e *Enclave) Commit(s Script) {
	e.meter.Charge(s)
	e.trace.Record(s)
}

// Meter exposes the enclave's cost meter.
func (e *Enclave) Meter() *Meter { return &e.meter }

// Trace exposes the enclave's observation trace.
func (e *Enclave) Trace() *Trace { return &e.trace }
