package tee

import "sync"

// EventKind classifies observation-trace events. The threat model (paper
// Sec. 2.2) grants the attacker *everything* observable in the REE: model
// parameters, computation, and data-transfer activity. Events inside the TEE
// exist in the full trace (for simulator accounting and tests) but are
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

// Event is one observation-trace entry.
type Event struct {
	Kind  EventKind
	Label string // layer or operation name
	Bytes int64  // payload size where applicable
}

// Trace is a thread-safe observation log of the protocol runs a session
// completed, recorded as their scripts. By default it grows without bound
// (experiment and attack runs want the full history); long-lived serving
// sessions call Bound to turn it into a fixed-capacity ring that retains
// the most recent events, so steady-state inference neither allocates nor
// accumulates memory.
type Trace struct {
	mu     sync.Mutex
	events []Event
	// limit is the ring capacity; 0 means unbounded.
	limit int
	// start is the ring read position once the ring is full.
	start int
}

// Bound caps the trace at the most recent n events (n < 1 removes the cap).
// The ring storage is allocated once here; subsequent Records are
// allocation-free.
func (t *Trace) Bound(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ordered := t.orderedLocked()
	if n < 1 {
		t.limit, t.start, t.events = 0, 0, ordered
		return
	}
	if len(ordered) > n {
		ordered = ordered[len(ordered)-n:]
	}
	t.limit = n
	t.start = 0
	t.events = make([]Event, len(ordered), n)
	copy(t.events, ordered)
}

// Record appends one completed run's script, step by step, under one lock
// hold, overwriting the oldest events once a bounded trace is full. It is
// the trace's only writer.
func (t *Trace) Record(s Script) {
	t.mu.Lock()
	for _, st := range s {
		e := Event{Kind: st.Kind, Label: st.Label, Bytes: st.Bytes}
		if t.limit == 0 || len(t.events) < t.limit {
			t.events = append(t.events, e)
			continue
		}
		t.events[t.start] = e
		t.start = (t.start + 1) % t.limit
	}
	t.mu.Unlock()
}

// orderedLocked returns the retained events oldest-first. Callers hold mu.
func (t *Trace) orderedLocked() []Event {
	out := make([]Event, len(t.events))
	n := copy(out, t.events[t.start:])
	copy(out[n:], t.events[:t.start])
	return out
}

// AttackerView returns only the retained events observable from the normal
// world, oldest first: REE computation and weight accesses, transfer
// payloads, and SMC timing. Secure-world computation is filtered out — the
// TEE is a black box.
func (t *Trace) AttackerView() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.events))
	for _, part := range [2][]Event{t.events[t.start:], t.events[:t.start]} {
		for _, e := range part {
			switch e.Kind {
			case EvREECompute, EvREEWeightAccess, EvTransfer, EvSMC:
				out = append(out, e)
			}
		}
	}
	return out
}
