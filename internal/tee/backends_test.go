package tee

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// workloadMeter returns a meter with a fixed, hand-computable workload:
// 9.6 GFLOP in the REE, 1.2 GFLOP in the TEE, 1000 switches, 700 MB staged.
func workloadMeter() *Meter {
	return charged(work(9.6e9, 1.2e9, 1000, 700e6))
}

// TestRPi3LatencyBitIdenticalToSeed locks the rpi3 backend to the seed's
// hardcoded Meter.Latency model: same constants, same serialized-worlds
// formula, same operation order — the results must be bit-identical, not
// merely close.
func TestRPi3LatencyBitIdenticalToSeed(t *testing.T) {
	// The seed model, reproduced verbatim: RaspberryPi3 constants and the
	// serialized Latency formula from the pre-registry DeviceModel.
	seed := func(m *Meter) float64 {
		const (
			reeFlopsPerSec      = 4.8e9
			teeFlopsPerSec      = 0.6e9
			transferBytesPerSec = 350e6
		)
		const (
			smcLatency        = 25 * time.Microsecond
			perInvokeOverhead = 120 * time.Microsecond
		)
		s := m.Flops(REE)/reeFlopsPerSec + m.Flops(TEE)/teeFlopsPerSec
		s += float64(m.Switches()) * (smcLatency + perInvokeOverhead).Seconds()
		s += float64(m.TransferredBytes()) / transferBytesPerSec
		return s
	}
	d := RaspberryPi3()
	meters := []*Meter{workloadMeter(), {}}
	// Irregular values catch any reassociation of the formula.
	m3 := charged(work(1234567.89, 98765.4321, 3, 31337))
	meters = append(meters, m3)
	for i, m := range meters {
		if got, want := d.Latency(m), seed(m); got != want {
			t.Errorf("meter %d: rpi3 latency %v differs from seed model %v", i, got, want)
		}
	}
}

// TestBackendLatencyGoldens locks each built-in backend's cost semantics to
// hand-computed golden values for the fixed workload meter.
func TestBackendLatencyGoldens(t *testing.T) {
	cases := []struct {
		device    string
		footprint int64 // secure working set recorded on the meter
		want      float64
	}{
		// Serialized worlds: 9.6e9/4.8e9 + 1.2e9/0.6e9 + 1000·145µs + 700e6/350e6.
		{"rpi3", 0, 2.0 + 2.0 + 0.145 + 2.0},
		// Parallel worlds, inside the EPC: max(9.6e9/2.4e11, 1.2e9/1.6e11)
		// + 1000·8µs + 700e6/8e9.
		{"sgx-desktop", 0, 0.04 + 0.008 + 0.0875},
		// 15 MB beyond the EPC pages on every entry: + 1000·15e6/1.5e9.
		{"sgx-desktop", (128 << 20) + 15e6, 0.04 + 0.008 + 0.0875 + 10.0},
		// Serialized with heavyweight exits: 9.6e9/1.8e12 + 1.2e9/1.5e12
		// + 1000·600µs + 700e6/12e9.
		{"sev-server", 0, 9.6/1800 + 1.2/1500 + 0.6 + 7.0/120},
		// Overlapped heterogeneous worlds: max(9.6e9/6e11, 1.2e9/1.2e9)
		// + 1000·40µs + 700e6/2e9.
		{"jetson-tz", 0, 1.0 + 0.04 + 0.35},
	}
	for _, c := range cases {
		d, err := ByName(c.device)
		if err != nil {
			t.Fatal(err)
		}
		m := workloadMeter()
		m.SetSecureFootprint(c.footprint)
		got := d.Latency(m)
		if math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("%s (footprint %d): latency = %.12f, want %.12f",
				c.device, c.footprint, got, c.want)
		}
	}
}

// TestBackendsAreDistinct: the same workload must be priced differently by
// every built-in — the point of the per-world rates and overlap semantics.
func TestBackendsAreDistinct(t *testing.T) {
	seen := map[float64]string{}
	for _, d := range Devices() {
		lat := d.Latency(workloadMeter())
		if lat <= 0 {
			t.Errorf("%s: non-positive latency %v", d.Name(), lat)
		}
		if prev, ok := seen[lat]; ok {
			t.Errorf("%s and %s price the workload identically (%v)", d.Name(), prev, lat)
		}
		seen[lat] = d.Name()
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"rpi3", "sgx-desktop", "sev-server", "jetson-tz"} {
		d, err := ByName(name)
		if err != nil {
			t.Fatalf("built-in %q: %v", name, err)
		}
		if d.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, d.Name())
		}
	}
	devs := Devices()
	if len(devs) < 4 {
		t.Fatalf("Devices() = %d entries, want ≥ 4 built-ins", len(devs))
	}
	for i := 1; i < len(devs); i++ {
		if devs[i-1].Name() >= devs[i].Name() {
			t.Fatalf("Devices() not sorted: %q before %q", devs[i-1].Name(), devs[i].Name())
		}
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	cases := []struct {
		name    string
		dev     Device
		wantDup bool
	}{
		{"nil device", nil, false},
		{"empty name", CostModel{}, false},
		{"zero rates would divide by zero in Latency",
			CostModel{DeviceName: "zero-rates"}, false},
		{"duplicate of a built-in", CostModel{DeviceName: "rpi3",
			REEFlops: 1e9, TEEFlops: 1e8, TransferRate: 1e6}, true},
	}
	for _, c := range cases {
		err := Register(c.dev)
		if err == nil {
			t.Fatalf("%s: registration succeeded, want error", c.name)
		}
		if c.wantDup != errors.Is(err, ErrDuplicateDevice) {
			t.Fatalf("%s: err = %v, ErrDuplicateDevice match = %v, want %v",
				c.name, err, !c.wantDup, c.wantDup)
		}
	}
}

func TestRegistryRegisterAndRelookup(t *testing.T) {
	// The custom backend satisfies the built-in sanity invariants because the
	// registry is package-global state shared with the other tests.
	custom := CostModel{
		DeviceName:     "test-custom-tz",
		REEFlops:       2e9,
		TEEFlops:       1e9,
		SwitchLatency:  time.Microsecond,
		TransferRate:   1e8,
		SecureCapacity: 1 << 20,
	}
	if err := Register(custom); err != nil {
		t.Fatal(err)
	}
	got, err := ByName("test-custom-tz")
	if err != nil {
		t.Fatal(err)
	}
	if got.SecureMemBytes() != 1<<20 {
		t.Fatalf("re-looked-up device capacity = %d", got.SecureMemBytes())
	}
	if err := Register(custom); !errors.Is(err, ErrDuplicateDevice) {
		t.Fatalf("second registration err = %v, want ErrDuplicateDevice", err)
	}
}

func TestRegistryUnknownDevice(t *testing.T) {
	_, err := ByName("tpu-pod")
	if !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("err = %v, want ErrUnknownDevice", err)
	}
	// The error teaches the caller what names exist.
	if !strings.Contains(err.Error(), "rpi3") {
		t.Fatalf("error %q does not list the registered names", err)
	}
}

func TestWithSecureMemOverridesOnlyCapacity(t *testing.T) {
	base := RaspberryPi3()
	small := WithSecureMem(base, 512)
	if small.SecureMemBytes() != 512 {
		t.Fatalf("capacity = %d, want 512", small.SecureMemBytes())
	}
	if Unbounded(base).SecureMemBytes() != 0 {
		t.Fatal("Unbounded must lift the capacity")
	}
	if small.Name() != base.Name() {
		t.Fatalf("wrapper changed identity: %q", small.Name())
	}
	m := workloadMeter()
	if small.Latency(m) != base.Latency(m) {
		t.Fatal("wrapper changed the cost semantics")
	}
}
