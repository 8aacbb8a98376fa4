package tee

// Step is one step of a protocol run: a world crossing (EvSMC, then the
// payload's EvTransfer), a compute step in one world, a normal-world weight
// read, or the result's release. Kind, Label and Bytes are what the
// observation trace records of it; World and Flops are what the meter
// charges.
type Step struct {
	Kind  EventKind
	World World
	Label string
	Flops float64
	Bytes int64
}

// Script is the ordered step list of one protocol run, fixed when a
// deployment is planned: which stages compute in which world, which
// crossings carry which bytes, in what order. It is the only statement of
// that order. A completed run is charged (Meter.Charge) and recorded
// (Trace.Record) as its script, one call each, so a run that fails part way
// leaves neither; a price is the same script charged on a fresh meter
// (Price), so what a run costs and what it is priced at are one figure.
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

// AttackerView returns what a normal-world observer of one run of s sees:
// the view of a trace that recorded only that run.
func (s Script) AttackerView() []Event {
	t := Trace{events: make([]Event, 0, len(s))}
	t.Record(s)
	return t.AttackerView()
}
