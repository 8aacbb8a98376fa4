package tee

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
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
	// 2 s REE, 2 s TEE, 0.5 s transfer.
	if got := d.Latency(charged(work(2e9, 1e9, 0, 5e5))); math.Abs(got-4.5) > 1e-9 {
		t.Fatalf("latency = %v, want 4.5", got)
	}
}

func TestMeterTEESlowerThanREE(t *testing.T) {
	d := RaspberryPi3()
	ree, teeM := charged(work(1e9, 0, 0, 0)), charged(work(0, 1e9, 0, 0))
	if d.Latency(teeM) <= d.Latency(ree) {
		t.Fatal("the same work must be slower in the TEE than in the REE")
	}
}

func TestMeterSwitchesAndReset(t *testing.T) {
	m := charged(Script{}.Cross("a", 60).Cross("b", 40))
	if m.Switches() != 2 || m.TransferredBytes() != 100 {
		t.Fatalf("meter = %v", m.String())
	}
}

// work is a script of reeFlops in the REE, teeFlops in the TEE, switches
// world switches and one transfer of bytes.
func work(reeFlops, teeFlops float64, switches int, bytes int64) Script {
	s := Script{
		{Kind: EvREECompute, World: REE, Flops: reeFlops},
		{Kind: EvTEECompute, World: TEE, Flops: teeFlops},
	}
	for i := 0; i < switches; i++ {
		s = append(s, Step{Kind: EvSMC, World: REE})
	}
	return append(s, Step{Kind: EvTransfer, World: REE, Bytes: bytes})
}

// charged returns a fresh meter charged with s.
func charged(s Script) *Meter {
	m := &Meter{}
	m.Charge(s)
	return m
}

// TestScriptPriceIsItsCharge: a script's price is what a fresh meter
// charged with it reads under the device, footprint included (SGX's EPC
// paging reads it), and charging twice is two runs.
func TestScriptPriceIsItsCharge(t *testing.T) {
	s := work(3e8, 2e7, 4, 1<<20)
	for _, d := range Devices() {
		for _, fp := range []int64{0, 1 << 30} {
			m := charged(s)
			m.secureFootprint = fp
			if got, want := s.Price(d, fp), d.Latency(m); got != want {
				t.Errorf("%s footprint %d: price %v, meter %v", d.Name(), fp, got, want)
			}
		}
	}
	m := charged(s)
	m.Charge(s)
	if m.Switches() != 8 || m.TransferredBytes() != 2<<20 || m.Flops(REE) != 6e8 || m.Flops(TEE) != 4e7 {
		t.Fatalf("two charges = %v", m)
	}
}

// TestTraceAttackerViewExcludesTEECompute: a script's attacker view is its
// normal-world steps in order, as events; secure compute and the result's
// release are not in it.
func TestTraceAttackerViewExcludesTEECompute(t *testing.T) {
	s := Script{
		{Kind: EvREECompute, Label: "conv1", Flops: 9, Bytes: 8},
		{Kind: EvTransfer, Label: "fm1", Bytes: 1024},
		{Kind: EvTEECompute, World: TEE, Label: "secret-conv", Bytes: 16},
		{Kind: EvSMC, Label: "invoke"},
		{Kind: EvResult, World: TEE, Label: "release", Bytes: 12},
	}
	want := []Event{
		{Kind: EvREECompute, Label: "conv1", Bytes: 8},
		{Kind: EvTransfer, Label: "fm1", Bytes: 1024},
		{Kind: EvSMC, Label: "invoke"},
	}
	if got := s.AttackerView(); !reflect.DeepEqual(got, want) {
		t.Fatalf("attacker view %v, want %v", got, want)
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
