package tee

// Step is one step of a protocol run: a world crossing (EvSMC, then the
// payload's EvTransfer), a compute step in one world, a normal-world weight
// read, or the result's release. Kind, Label and Bytes are what a
// normal-world observer may see of it; World and Flops are what the meter
// charges.
type Step struct {
	// Kind is what the step does.
	Kind EventKind
	// World is where the step computes; its Flops are charged there.
	World World
	// Label names the layer, stage or operation the step belongs to.
	Label string
	// Flops is the step's arithmetic, at the serving path's throughput.
	Flops float64
	// Bytes is the step's payload: a crossing's staged bytes, a compute
	// step's output, a weight read's parameters, the released logits.
	Bytes int64
}

// Script is the ordered step list of one protocol run, fixed when a
// deployment is planned: which stages compute in which world, which
// crossings carry which bytes, in what order. It is the only statement of
// that order, and of what a run costs and shows: a run only computes, its
// price is its script charged on a fresh meter (Price) and its observable
// trace is its script filtered (AttackerView).
type Script []Step

// Cross appends one REE→TEE crossing to s: the world switch, then the
// payload staged through shared memory.
func (s Script) Cross(label string, bytes int64) Script {
	return append(s, Step{Kind: EvSMC, World: REE, Label: label},
		Step{Kind: EvTransfer, World: REE, Label: label, Bytes: bytes})
}

// Price returns the modeled seconds of one run of s on d by a session whose
// secure working set is footprint bytes (the figure SGX's EPC paging reads).
func (s Script) Price(d Device, footprint int64) float64 {
	m := Meter{secureFootprint: footprint}
	m.Charge(s)
	return d.Latency(&m)
}

// AttackerView returns what a normal-world observer of one run of s sees,
// in order: REE computation and weight accesses, transfer payloads, and SMC
// timing. Secure-world computation and the result's release are filtered
// out — the TEE is a black box.
func (s Script) AttackerView() []Event {
	out := make([]Event, 0, len(s))
	for _, st := range s {
		switch st.Kind {
		case EvREECompute, EvREEWeightAccess, EvTransfer, EvSMC:
			out = append(out, Event{Kind: st.Kind, Label: st.Label, Bytes: st.Bytes})
		}
	}
	return out
}
