package defense

import (
	"reflect"
	"testing"

	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

func victim(seed uint64) *zoo.Model {
	return zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(seed))
}

func sample(n int, seed uint64) *tensor.Tensor {
	x := tensor.New(n, 3, 16, 16)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	return x
}

var shape = []int{1, 3, 16, 16}

// metered is the modeled seconds the placement's meter reads after the runs
// it completed.
func metered(p *Placement) float64 { return p.Device.Latency(p.enclave.Meter()) }

// TestPriceIsOneRun: for every strategy on every backend, one inference at
// the placement's sample shape records exactly its script's attacker view,
// and its meter reads Price bit for bit. The same holds at a batch the
// placement was not sized for, where the run is the batched script.
func TestPriceIsOneRun(t *testing.T) {
	v := victim(5)
	for _, d := range tee.Devices() {
		for _, s := range []Strategy{FullTEE{}, DarkneTZ{SplitAt: 0}, DarkneTZ{SplitAt: 2}, ShadowNet{}, MirrorNet{}} {
			for _, n := range []int{1, 3} {
				in := append([]int{n}, shape[1:]...)
				p, err := s.Place(v, d, in)
				if err != nil {
					t.Fatal(err)
				}
				p.Infer(sample(n, 6))
				if got, want := p.enclave.Trace().AttackerView(), p.Script().AttackerView(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s on %s, batch %d: trace %v, script %v", s.Name(), d.Name(), n, got, want)
				}
				if got, want := metered(p), p.Price(); got != want || got <= 0 {
					t.Fatalf("%s on %s, batch %d: metered %v, price %v", s.Name(), d.Name(), n, got, want)
				}
				one, err := s.Place(v, d, shape)
				if err != nil {
					t.Fatal(err)
				}
				one.Infer(sample(n, 6))
				if got, want := metered(one), batched(one.script, n).Price(d, one.SecureBytes); got != want {
					t.Fatalf("%s on %s: batch %d on a one-sample placement metered %v, want %v", s.Name(), d.Name(), n, got, want)
				}
			}
		}
	}
}

func TestFullTEEPlacement(t *testing.T) {
	p, err := FullTEE{}.Place(victim(1), tee.RaspberryPi3(), shape)
	if err != nil {
		t.Fatal(err)
	}
	if p.ExposedParamBytes != 0 || p.ExposedArch {
		t.Fatal("full-TEE must expose nothing")
	}
	labels := p.Infer(sample(2, 2))
	if len(labels) != 2 {
		t.Fatalf("labels = %v", labels)
	}
	if p.enclave.Meter().Flops(tee.REE) != 0 {
		t.Fatal("full-TEE must not compute in the REE")
	}
	if metered(p) <= 0 {
		t.Fatal("latency must be positive")
	}
}

func TestAllStrategiesAgreeOnLabels(t *testing.T) {
	v := victim(3)
	x := sample(4, 4)
	ref := v.Forward(x.Clone(), false)
	want := argmaxLabels(ref)
	strategies := []Strategy{FullTEE{}, DarkneTZ{SplitAt: 2}, ShadowNet{}, MirrorNet{}}
	for _, s := range strategies {
		p, err := s.Place(v, tee.RaspberryPi3(), shape)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		got := p.Infer(x.Clone())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s label %d differs from reference", s.Name(), i)
			}
		}
	}
}

func TestDarkneTZExposureGrowsWithSplit(t *testing.T) {
	v := victim(5)
	d := tee.RaspberryPi3()
	p1, err := DarkneTZ{SplitAt: 1}.Place(v, d, shape)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DarkneTZ{SplitAt: 2}.Place(v, d, shape)
	if err != nil {
		t.Fatal(err)
	}
	if p2.ExposedParamBytes <= p1.ExposedParamBytes {
		t.Fatal("exposing more stages must expose more parameters")
	}
	if p2.SecureBytes >= p1.SecureBytes {
		t.Fatal("moving stages out of the TEE must shrink the secure footprint")
	}
}

func TestDarkneTZSplitBounds(t *testing.T) {
	v := victim(6)
	if _, err := (DarkneTZ{SplitAt: 99}).Place(v, tee.RaspberryPi3(), shape); err == nil {
		t.Fatal("out-of-range split must fail")
	}
}

func TestDarkneTZFasterThanFullTEE(t *testing.T) {
	v := victim(7)
	d := tee.RaspberryPi3()
	full, _ := FullTEE{}.Place(v, d, shape)
	part, _ := DarkneTZ{SplitAt: 2}.Place(v, d, shape)
	x := sample(1, 8)
	full.Infer(x.Clone())
	part.Infer(x.Clone())
	if metered(part) >= metered(full) {
		t.Fatalf("partitioned %.6fs should beat full-TEE %.6fs", metered(part), metered(full))
	}
}

func TestShadowNetExposesWeightsButSmallTEE(t *testing.T) {
	v := victim(9)
	p, err := ShadowNet{}.Place(v, tee.RaspberryPi3(), shape)
	if err != nil {
		t.Fatal(err)
	}
	if p.ExposedParamBytes == 0 || !p.ExposedArch {
		t.Fatal("shadownet outsources (transformed) weights to the REE")
	}
	full, _ := FullTEE{}.Place(v, tee.RaspberryPi3(), shape)
	if p.SecureBytes >= full.SecureBytes {
		t.Fatal("shadownet's secure footprint should undercut full-TEE")
	}
	p.Infer(sample(1, 10))
	if p.enclave.Meter().Switches() < len(v.Stages) {
		t.Fatal("shadownet requires a boundary crossing per outsourced layer")
	}
}

func TestMirrorNetExposesEverything(t *testing.T) {
	v := victim(11)
	p, err := MirrorNet{}.Place(v, tee.RaspberryPi3(), shape)
	if err != nil {
		t.Fatal(err)
	}
	if !p.ExposedArch {
		t.Fatal("mirrornet leaves the victim architecture in the REE")
	}
	full, _ := FullTEE{}.Place(v, tee.RaspberryPi3(), shape)
	if p.ExposedParamBytes <= full.ExposedParamBytes {
		t.Fatal("mirrornet must expose the backbone parameters")
	}
}

func TestPlacementFailsOnTinySecureMemory(t *testing.T) {
	v := victim(12)
	d := tee.WithSecureMem(tee.RaspberryPi3(), 512)
	if _, err := (FullTEE{}).Place(v, d, shape); err == nil {
		t.Fatal("full-TEE must fail in 512 bytes of secure memory")
	}
}
