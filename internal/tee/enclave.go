package tee

import (
	"tbnet/internal/tensor"
)

// Program is the trusted-application logic loaded into the secure world (for
// TBNet, the secure-branch runtime). Its interface is deliberately one-way:
// Invoke consumes data and returns only an error — there is no way for a
// normal-world caller to read intermediate state back out. The final
// classification is released through Result, modeling the paper's output
// path from M_T to the *model user* (not to REE memory an attacker can read).
// A Program only computes: what a run costs and what it shows is the run's
// Script, fixed when the deployment is planned.
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
