package tee

// EventKind classifies the observable steps of a protocol run. The threat
// model (paper Sec. 2.2) grants the attacker *everything* observable in the
// REE: model parameters, computation, and data-transfer activity. Steps
// inside the TEE are part of a run's script (the meter charges them) but are
// excluded from the attacker's view.
type EventKind uint8

const (
	// EvREECompute is normal-world computation (layer execution in M_R).
	EvREECompute EventKind = iota
	// EvREEWeightAccess is a normal-world read of model parameters.
	EvREEWeightAccess
	// EvTransfer is a shared-memory staging of data from REE to TEE. The
	// attacker sees the payload (it crosses normal-world memory).
	EvTransfer
	// EvSMC is a world switch into the secure monitor.
	EvSMC
	// EvTEECompute is secure-world computation — invisible to the attacker.
	EvTEECompute
	// EvResult is the final classification released to the model user.
	EvResult
)

// String returns a short label.
func (k EventKind) String() string {
	switch k {
	case EvREECompute:
		return "ree-compute"
	case EvREEWeightAccess:
		return "ree-weights"
	case EvTransfer:
		return "transfer"
	case EvSMC:
		return "smc"
	case EvTEECompute:
		return "tee-compute"
	case EvResult:
		return "result"
	}
	return "unknown"
}

// Event is one step of a run as a normal-world observer sees it
// (Script.AttackerView).
type Event struct {
	// Kind is what the step does.
	Kind  EventKind
	Label string // layer or operation name
	Bytes int64  // payload size where applicable
}
