package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tbnet/internal/quant"
	"tbnet/internal/tee"
)

func TestParsePrecision(t *testing.T) {
	for in, want := range map[string]Precision{
		"": PrecisionF32, "f32": PrecisionF32, "fp32": PrecisionF32,
		"float32": PrecisionF32, "int8": PrecisionInt8, "i8": PrecisionInt8,
	} {
		got, err := ParsePrecision(in)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePrecision("int4"); !errors.Is(err, ErrShape) {
		t.Fatalf("ParsePrecision(int4) = %v, want ErrShape", err)
	}
}

func TestDeployInt8RequiresFinalization(t *testing.T) {
	tb := NewTwoBranch(tinyVictimVGG(4, 230), 231)
	if _, err := DeployInt8(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16}); !errors.Is(err, ErrNotFinalized) {
		t.Fatalf("unfinalized: err = %v, want ErrNotFinalized", err)
	}
}

// TestDeployInt8InferAgreesWithF32 checks the quantized deployment still
// classifies: labels must largely agree with the f32 deployment on the same
// inputs (quantization may legitimately flip a near-tie, so exact equality is
// not required).
func TestDeployInt8InferAgreesWithF32(t *testing.T) {
	tb, _ := finalizedTB(t, 240)
	shape := []int{6, 3, 16, 16}
	f32, err := Deploy(tb, tee.RaspberryPi3(), shape)
	if err != nil {
		t.Fatal(err)
	}
	i8, err := DeployInt8(tb, tee.RaspberryPi3(), shape)
	if err != nil {
		t.Fatal(err)
	}
	if i8.Precision() != PrecisionInt8 || f32.Precision() != PrecisionF32 {
		t.Fatalf("precisions %v/%v, want int8/f32", i8.Precision(), f32.Precision())
	}
	x := randX(6, 241)
	la, err := f32.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := i8.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range la {
		if la[i] == lb[i] {
			agree++
		}
	}
	if agree < len(la)-1 {
		t.Fatalf("int8 labels agree on only %d/%d samples", agree, len(la))
	}
}

// TestInt8ShrinksSecureFootprint locks the memory half of the win: quantized
// parameters shrink the secure reservation (activations and staging stay
// float32, so the ratio is below 4× but must be meaningfully above 1×).
func TestInt8ShrinksSecureFootprint(t *testing.T) {
	tb, _ := finalizedTB(t, 250)
	shape := []int{2, 3, 16, 16}
	f32, err := Deploy(tb, tee.Unbounded(tee.RaspberryPi3()), shape)
	if err != nil {
		t.Fatal(err)
	}
	i8, err := DeployInt8(tb, tee.Unbounded(tee.RaspberryPi3()), shape)
	if err != nil {
		t.Fatal(err)
	}
	if i8.SecureBytes >= f32.SecureBytes {
		t.Fatalf("int8 secure footprint %d not below f32's %d", i8.SecureBytes, f32.SecureBytes)
	}
}

// inferLatency deploys tb at the given precision and returns the modeled
// latency of one batch-2 inference.
func inferLatency(t *testing.T, tb *TwoBranch, device tee.Device, int8 bool) float64 {
	t.Helper()
	shape := []int{2, 3, 16, 16}
	var dep *Deployment
	var err error
	if int8 {
		dep, err = DeployInt8(tb, device, shape)
	} else {
		dep, err = Deploy(tb, device, shape)
	}
	if err != nil {
		t.Fatalf("%s: %v", device.Name(), err)
	}
	lat, err := dep.ModeledLatency(2)
	if err != nil {
		t.Fatalf("%s: %v", device.Name(), err)
	}
	return lat
}

// TestInt8BeatsF32OnEveryBackend locks the headline acceptance criterion:
// the modeled latency of an int8 inference is strictly below f32 on every
// registered backend (flops shrink by the backend's int8 ratio; switch and
// transfer terms are unchanged, so the total strictly decreases).
func TestInt8BeatsF32OnEveryBackend(t *testing.T) {
	tb, _ := finalizedTB(t, 260)
	for _, device := range tee.Devices() {
		d := tee.Unbounded(device) // footprint checked elsewhere; compare pure latency
		f32 := inferLatency(t, tb, d, false)
		i8 := inferLatency(t, tb, d, true)
		if i8 >= f32 {
			t.Errorf("%s: int8 latency %.3gs not below f32 %.3gs", device.Name(), i8, f32)
		}
	}
}

// TestInt8SuperlinearOnPagingSGX locks the superlinear acceptance criterion:
// on an SGX-style backend whose EPC sits between the int8 and f32 secure
// footprints, quantization removes the per-entry paging term entirely, so the
// f32→int8 improvement ratio strictly exceeds the same model's ratio on rpi3
// (where the win is linear in the flop scaling).
func TestInt8SuperlinearOnPagingSGX(t *testing.T) {
	tb, _ := finalizedTB(t, 270)
	shape := []int{2, 3, 16, 16}
	probe, err := Deploy(tb, tee.Unbounded(tee.SGXDesktop()), shape)
	if err != nil {
		t.Fatal(err)
	}
	probeI8, err := DeployInt8(tb, tee.Unbounded(tee.SGXDesktop()), shape)
	if err != nil {
		t.Fatal(err)
	}
	// The real sgx-desktop EPC (128 MiB) never overflows with test-sized
	// models, so shrink it to sit strictly between the two footprints: the
	// f32 session pages on every enclave entry, the int8 session is resident.
	epc := (probe.SecureBytes + probeI8.SecureBytes) / 2
	if probeI8.SecureBytes >= epc || epc >= probe.SecureBytes {
		t.Fatalf("EPC %d does not separate footprints %d (int8) and %d (f32)",
			epc, probeI8.SecureBytes, probe.SecureBytes)
	}
	// Test-sized models also move only a few hundred KB, so the desktop
	// paging rate would hide the cliff behind fixed switch costs; a slow
	// encrypted-swap path keeps the term visible at this scale.
	sgx := tee.SGXDevice{
		CostModel:  tee.SGXDesktop().(tee.SGXDevice).CostModel,
		EPCBytes:   epc,
		PagingRate: 1e6,
	}
	sgxRatio := inferLatency(t, tb, sgx, false) / inferLatency(t, tb, sgx, true)
	rpi := tee.Unbounded(tee.RaspberryPi3())
	rpiRatio := inferLatency(t, tb, rpi, false) / inferLatency(t, tb, rpi, true)
	if sgxRatio <= rpiRatio {
		t.Fatalf("sgx improvement %.3f× not superlinear vs rpi3's %.3f×", sgxRatio, rpiRatio)
	}
	// And superlinear in the strict sense: the ratio must also exceed the
	// backend's raw int8 flop speedup.
	if sgxRatio <= tee.Int8SpeedupOf(sgx) {
		t.Fatalf("sgx improvement %.3f× does not exceed the raw flop speedup %v×",
			sgxRatio, tee.Int8SpeedupOf(sgx))
	}
}

// TestInt8ReplicatePreservesPrecision locks the serving-pool invariant:
// replicas (including cross-device ones) stay on the int8 path with its
// pricing and footprint.
func TestInt8ReplicatePreservesPrecision(t *testing.T) {
	tb, _ := finalizedTB(t, 280)
	dep, err := DeployInt8(tb, tee.Unbounded(tee.RaspberryPi3()), []int{2, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dep.Replicate(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Precision() != PrecisionInt8 {
		t.Fatalf("replica precision %v, want int8", rep.Precision())
	}
	if rep.SecureBytes != dep.SecureBytes {
		t.Fatalf("replica secure bytes %d != original %d", rep.SecureBytes, dep.SecureBytes)
	}
	cross, err := dep.ReplicateOn(tee.Unbounded(tee.JetsonTZ()), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cross.Precision() != PrecisionInt8 {
		t.Fatalf("cross-device replica precision %v, want int8", cross.Precision())
	}
	// A replica shares the original's realized branches, packed int8 weights
	// included: it must label and price exactly as the original does.
	x := randX(2, 281)
	want, err := dep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Deployment{rep, cross} {
		got, err := r.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("replica labels %v, original %v", got, want)
		}
	}
	if got, want := rep.plan.scripts, dep.plan.scripts; !reflect.DeepEqual(got, want) {
		t.Fatalf("replica scripts %v, original %v", got, want)
	}
	if rep.Snapshot().MT != dep.Snapshot().MT || cross.Snapshot().MR != dep.Snapshot().MR {
		t.Fatal("an int8 replica does not share the original's armed branches")
	}
}

// TestDeployInt8RefusesBranchesOfTwoPrecisions: Deploy reads the precision
// off the armed layers, so a model whose branches disagree is refused
// rather than priced as either.
func TestDeployInt8RefusesBranchesOfTwoPrecisions(t *testing.T) {
	tb, _ := finalizedTB(t, 282)
	mixed := &TwoBranch{MR: quant.Quantize(tb.MR), MT: tb.MT, Align: tb.Align, Finalized: true}
	if _, err := Deploy(mixed, tee.RaspberryPi3(), []int{1, 3, 16, 16}); !errors.Is(err, ErrShape) {
		t.Fatalf("Deploy of an int8 M_R beside a float32 M_T: err = %v, want ErrShape", err)
	}
}

// TestF32GoldenLatencyUnchanged guards the seed's f32 pricing against the
// int8 plumbing: a batch-1 f32 inference on rpi3 must cost exactly what the
// unscaled profile says.
func TestF32GoldenLatencyUnchanged(t *testing.T) {
	tb, _ := finalizedTB(t, 290)
	device := tee.Unbounded(tee.RaspberryPi3())
	dep, err := Deploy(tb, device, []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	var m tee.Meter
	m.Charge(dep.plan.scripts[0])
	wantREE := dep.plan.mrCost.TotalFlops() - dep.plan.mrCost.Head.Flops
	if got := m.Flops(tee.REE); got != wantREE {
		t.Fatalf("f32 REE flops %v, want unscaled %v", got, wantREE)
	}
	if m.Flops(tee.TEE) != dep.plan.mtCost.TotalFlops() {
		t.Fatalf("f32 TEE flops %v, want unscaled %v", m.Flops(tee.TEE), dep.plan.mtCost.TotalFlops())
	}
}
