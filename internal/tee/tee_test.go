package tee

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"tbnet/internal/tensor"
)

func TestSecureMemoryAccounting(t *testing.T) {
	m := NewSecureMemory(100)
	if err := m.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc(30); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 90 || m.Peak() != 90 {
		t.Fatalf("used/peak = %d/%d, want 90/90", m.Used(), m.Peak())
	}
	m.Free(50)
	if m.Used() != 40 || m.Peak() != 90 {
		t.Fatalf("after free: used/peak = %d/%d, want 40/90", m.Used(), m.Peak())
	}
}

func TestSecureMemoryExhaustion(t *testing.T) {
	m := NewSecureMemory(100)
	if err := m.Alloc(80); err != nil {
		t.Fatal(err)
	}
	err := m.Alloc(30)
	var ex *ErrSecureMemoryExhausted
	if !errors.As(err, &ex) {
		t.Fatalf("want ErrSecureMemoryExhausted, got %v", err)
	}
	if ex.Requested != 30 || ex.Used != 80 || ex.Capacity != 100 {
		t.Fatalf("error detail = %+v", ex)
	}
	// Failed allocation must not change accounting.
	if m.Used() != 80 {
		t.Fatalf("used = %d after failed alloc, want 80", m.Used())
	}
}

func TestSecureMemoryUnlimited(t *testing.T) {
	m := NewSecureMemory(0)
	if err := m.Alloc(1 << 40); err != nil {
		t.Fatalf("unlimited accountant rejected allocation: %v", err)
	}
}

func TestSecureMemoryOverFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-free")
		}
	}()
	NewSecureMemory(10).Free(1)
}

// TestSecureMemoryPeakInvariant: peak ≥ used at all times, under any
// alloc/free sequence.
func TestSecureMemoryPeakInvariant(t *testing.T) {
	err := quick.Check(func(ops []uint8) bool {
		m := NewSecureMemory(0)
		for _, op := range ops {
			n := int64(op % 64)
			if op%2 == 0 {
				_ = m.Alloc(n)
			} else if n <= m.Used() {
				m.Free(n)
			}
			if m.Peak() < m.Used() {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMeterLatencyComposition(t *testing.T) {
	// Zero switch cost keeps the check hand-computable.
	d := CostModel{
		REEFlops:     1e9,
		TEEFlops:     5e8,
		TransferRate: 1e6,
	}
	var m Meter
	m.AddCompute(REE, 2e9) // 2s
	m.AddCompute(TEE, 1e9) // 2s
	m.AddTransfer(5e5)     // 0.5s
	if got := m.Latency(d); math.Abs(got-4.5) > 1e-9 {
		t.Fatalf("latency = %v, want 4.5", got)
	}
}

func TestMeterTEESlowerThanREE(t *testing.T) {
	d := RaspberryPi3()
	var ree, teeM Meter
	ree.AddCompute(REE, 1e9)
	teeM.AddCompute(TEE, 1e9)
	if teeM.Latency(d) <= ree.Latency(d) {
		t.Fatal("the same work must be slower in the TEE than in the REE")
	}
}

func TestMeterSwitchesAndReset(t *testing.T) {
	var m Meter
	m.AddSwitch()
	m.AddSwitch()
	m.AddTransfer(100)
	if m.Switches() != 2 || m.TransferredBytes() != 100 {
		t.Fatalf("meter = %v", m.String())
	}
}

func TestTraceAttackerViewExcludesTEECompute(t *testing.T) {
	tr := &Trace{}
	tr.Record(Event{Kind: EvREECompute, Label: "conv1"})
	tr.Record(Event{Kind: EvTransfer, Label: "fm1", Bytes: 1024})
	tr.Record(Event{Kind: EvTEECompute, Label: "secret-conv"})
	tr.Record(Event{Kind: EvSMC, Label: "invoke"})
	tr.Record(Event{Kind: EvResult, Label: "release"})

	view := tr.AttackerView()
	if len(view) != 3 {
		t.Fatalf("attacker sees %d events, want 3", len(view))
	}
	for _, e := range view {
		if e.Kind == EvTEECompute || e.Kind == EvResult {
			t.Fatalf("attacker view leaked %v", e.Kind)
		}
	}
	if countEvents(tr, EvTEECompute) != 1 {
		t.Fatal("full trace must retain TEE events for the simulator")
	}
}

// echoProgram tries to exfiltrate its payload; the interface gives it no way
// to return data, so all it can do is remember it internally.
type echoProgram struct {
	got    []*tensor.Tensor
	result *tensor.Tensor
}

func (p *echoProgram) Invoke(ctx *Context, cmd int, payload *tensor.Tensor) error {
	ctx.Trace.Record(Event{Kind: EvTEECompute, Label: "ingest"})
	p.got = append(p.got, payload)
	if cmd == 99 {
		p.result = payload
	}
	return nil
}

func (p *echoProgram) Result(ctx *Context) (*tensor.Tensor, error) {
	return p.result, nil
}

func TestEnclaveInvokeMetersTransfer(t *testing.T) {
	prog := &echoProgram{}
	e := NewEnclave(prog, NewSecureMemory(0))
	payload := tensor.New(4, 4) // 64 bytes
	if err := e.Invoke(1, "fm", payload); err != nil {
		t.Fatal(err)
	}
	if e.Meter().Switches() != 1 {
		t.Fatalf("switches = %d, want 1", e.Meter().Switches())
	}
	if e.Meter().TransferredBytes() != 64 {
		t.Fatalf("transferred = %d, want 64", e.Meter().TransferredBytes())
	}
	if err := e.Invoke(2, "cmd-only", nil); err != nil {
		t.Fatal(err)
	}
	if e.Meter().TransferredBytes() != 64 {
		t.Fatal("nil payload must not add transfer bytes")
	}
}

func TestEnclaveResultPath(t *testing.T) {
	prog := &echoProgram{}
	e := NewEnclave(prog, NewSecureMemory(0))
	want := tensor.FromData([]float32{1, 2, 3}, 3)
	if err := e.Invoke(99, "final", want); err != nil {
		t.Fatal(err)
	}
	got, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 3 || got.Data()[2] != 3 {
		t.Fatalf("result = %v", got.Data())
	}
	// The release event exists but is not attacker-visible.
	for _, ev := range e.Trace().AttackerView() {
		if ev.Kind == EvResult {
			t.Fatal("result release leaked into the attacker view")
		}
	}
}

func TestBuiltinDeviceSanity(t *testing.T) {
	for _, d := range Devices() {
		if d.TEEFlopsPerSec() >= d.REEFlopsPerSec() {
			t.Errorf("%s: TEE must be slower than REE in the calibrated models", d.Name())
		}
		if d.SecureMemBytes() <= 0 || d.TransferBytesPerSec() <= 0 ||
			d.SwitchSeconds() <= 0 {
			t.Errorf("%s: device model has unset fields", d.Name())
		}
	}
}
