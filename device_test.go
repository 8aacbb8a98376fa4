package tbnet

// Tests for the hardware-backend surface of the public API: the named device
// registry and the acceptance property that a non-rpi3 backend threads
// through Deploy and NewFleet and produces different modeled numbers.

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"tbnet/internal/serve"
)

// finalizedForDevices builds a finalized two-branch model without training:
// device cost accounting depends only on the architecture and the staged
// protocol, not on learned weights.
func finalizedForDevices(t *testing.T) *TwoBranch { return finalizedDeployment(t, 41).Snapshot() }

func TestDeviceByNameUnknownWrapsErrBadOption(t *testing.T) {
	if _, err := DeviceByName("abacus"); !errors.Is(err, ErrBadOption) {
		t.Fatalf("unknown device err = %v, want ErrBadOption", err)
	}
	d, err := DeviceByName("sgx-desktop")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "sgx-desktop" {
		t.Fatalf("device name = %q", d.Name())
	}
}

func TestRegisterDeviceValidation(t *testing.T) {
	cases := []struct {
		name string
		dev  Device
	}{
		{"nil device", nil},
		{"empty name", CostModel{}},
		{"zero rates", CostModel{DeviceName: "zero-rates"}},
		{"duplicate name", CostModel{DeviceName: "rpi3",
			REEFlops: 1e9, TEEFlops: 1e8, TransferRate: 1e6}},
	}
	for _, c := range cases {
		if err := RegisterDevice(c.dev); !errors.Is(err, ErrBadOption) {
			t.Fatalf("%s: err = %v, want ErrBadOption", c.name, err)
		}
	}
}

func TestRegisterDeviceRoundTrip(t *testing.T) {
	// A sane custom backend (TEE slower than REE) so the registry stays
	// consistent for the other tests sharing the process.
	custom := CostModel{
		DeviceName:     "facade-custom",
		REEFlops:       3e9,
		TEEFlops:       1e9,
		SwitchLatency:  50 * time.Microsecond,
		TransferRate:   2e8,
		SecureCapacity: 32 << 20,
	}
	if err := RegisterDevice(custom); err != nil {
		t.Fatal(err)
	}
	if err := RegisterDevice(custom); !errors.Is(err, ErrBadOption) {
		t.Fatalf("duplicate registration err = %v, want ErrBadOption", err)
	}
	got, err := DeviceByName("facade-custom")
	if err != nil {
		t.Fatal(err)
	}
	tb := finalizedForDevices(t)
	if _, err := Deploy(tb, got, []int{1, 3, 16, 16}); err != nil {
		t.Fatalf("deploying on the registered custom backend: %v", err)
	}
	if !slices.ContainsFunc(Devices(), func(d Device) bool { return d.Name() == "facade-custom" }) {
		t.Fatal("registered backend missing from Devices()")
	}
}

// TestDeployAcrossBackendsDiffers is the acceptance property: a non-rpi3
// built-in passed to Deploy produces different modeled latency than rpi3 for
// the identical finalized model and input.
func TestDeployAcrossBackendsDiffers(t *testing.T) {
	tb := finalizedForDevices(t)
	x := NewTensor(1, 3, 16, 16)
	NewRNG(43).FillNormal(x, 0, 1)
	latencies := map[string]float64{}
	for _, name := range []string{"rpi3", "sgx-desktop", "sev-server", "jetson-tz"} {
		dev, err := DeviceByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := Deploy(tb, Unbounded(dev), []int{1, 3, 16, 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dep.Infer(x); err != nil {
			t.Fatal(err)
		}
		latencies[name] = dep.Latency()
	}
	for name, lat := range latencies {
		if lat <= 0 {
			t.Fatalf("%s: non-positive modeled latency %v", name, lat)
		}
		if name != "rpi3" && lat == latencies["rpi3"] {
			t.Fatalf("%s prices the run identically to rpi3 (%v)", name, lat)
		}
	}
}

// TestServeAcrossBackendsDiffers: the same model served on two backends
// reports the device name in its node's Stats and different modeled
// throughput. Workers and batch are pinned to 1 so the modeled figures are
// deterministic, and the node runs on the Unbounded wrapper itself, so
// WithDevice must take a wrapped device as it is.
func TestServeAcrossBackendsDiffers(t *testing.T) {
	tb := finalizedForDevices(t)
	stats := map[string]serve.Stats{}
	for _, name := range []string{"rpi3", "sgx-desktop"} {
		dev, err := DeviceByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := Deploy(tb, Unbounded(dev), []int{1, 3, 16, 16})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewFleet(dep, WithDevice(dep.Device, 1), WithMaxBatch(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			x := NewTensor(1, 3, 16, 16)
			NewRNG(uint64(50+i)).FillNormal(x, 0, 1)
			if _, err := srv.Infer(context.Background(), x); err != nil {
				t.Fatal(err)
			}
		}
		st := srv.Stats().PerDevice[0].Serve
		srv.Close()
		if st.Device != name {
			t.Fatalf("Stats().Device = %q, want %q", st.Device, name)
		}
		if st.PeakSecureBytes <= 0 {
			t.Fatalf("%s: peak secure bytes = %d", name, st.PeakSecureBytes)
		}
		stats[name] = st
	}
	if stats["rpi3"].ModeledThroughput == stats["sgx-desktop"].ModeledThroughput {
		t.Fatalf("both backends model %v req/s; device semantics not threaded through serving",
			stats["rpi3"].ModeledThroughput)
	}
	if stats["rpi3"].P50Latency == stats["sgx-desktop"].P50Latency {
		t.Fatal("both backends model the same p50 latency")
	}
}
