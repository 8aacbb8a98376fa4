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
	// Invoke handles one command from the normal world with an optional
	// payload staged through shared memory.
	Invoke(ctx *Context, cmd int, payload *tensor.Tensor) error
	// Result releases the program's user-facing output.
	Result(ctx *Context) (*tensor.Tensor, error)
}

// Context gives a Program access to the enclave's metered resources.
type Context struct {
	Mem   *SecureMemory
	Meter *Meter
	Trace *Trace
}

// Enclave is one loaded trusted application: a Program plus its secure
// memory, meter, and observation trace. All interaction from the normal
// world goes through Invoke, which charges the world switch and the
// shared-memory transfer before entering the secure world.
type Enclave struct {
	ctx  *Context
	prog Program
}

// NewEnclave loads a program into a fresh enclave backed by the given
// secure-memory accountant.
func NewEnclave(prog Program, mem *SecureMemory) *Enclave {
	return &Enclave{
		ctx:  &Context{Mem: mem, Meter: &Meter{}, Trace: &Trace{}},
		prog: prog,
	}
}

// Invoke is the REE-side entry point (the SMC). The payload crosses shared
// memory, so it is recorded as attacker-visible; the command then executes
// inside the secure world. No data flows back.
func (e *Enclave) Invoke(cmd int, label string, payload *tensor.Tensor) error {
	e.ctx.Meter.AddSwitch()
	e.ctx.Trace.Record(Event{Kind: EvSMC, Label: label})
	if payload != nil {
		bytes := int64(payload.Size()) * 4
		e.ctx.Meter.AddTransfer(bytes)
		e.ctx.Trace.Record(Event{Kind: EvTransfer, Label: label, Bytes: bytes})
	}
	return e.prog.Invoke(e.ctx, cmd, payload)
}

// Result releases the program's output to the model user. This is the only
// data path out of the enclave; it does not pass through REE-readable
// memory in the modeled system.
func (e *Enclave) Result() (*tensor.Tensor, error) {
	out, err := e.prog.Result(e.ctx)
	if err != nil {
		return nil, err
	}
	e.ctx.Trace.Record(Event{Kind: EvResult, Label: "release", Bytes: int64(out.Size()) * 4})
	return out, nil
}

// Meter exposes the enclave's cost meter.
func (e *Enclave) Meter() *Meter { return e.ctx.Meter }

// Trace exposes the enclave's observation trace.
func (e *Enclave) Trace() *Trace { return e.ctx.Trace }
