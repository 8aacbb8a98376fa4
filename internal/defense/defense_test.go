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

// recorder is a tee.Program that passes every call through to the program
// it wraps and keeps what actually crossed: each Invoke's payload bytes, in
// order, and each released result's bytes.
type recorder struct {
	tee.Program
	invoked, released []int64
}

func (r *recorder) Invoke(cmd int, payload *tensor.Tensor) error {
	r.invoked = append(r.invoked, 4*int64(payload.Size()))
	return r.Program.Invoke(cmd, payload)
}

func (r *recorder) Result() (*tensor.Tensor, error) {
	out, err := r.Program.Result()
	if err == nil {
		r.released = append(r.released, 4*int64(out.Size()))
	}
	return out, err
}

// crossings returns the bytes of s's EvTransfer steps, in order, and of its
// EvResult steps.
func crossings(s tee.Script) (transfers, results []int64) {
	for _, st := range s {
		switch st.Kind {
		case tee.EvTransfer:
			transfers = append(transfers, st.Bytes)
		case tee.EvResult:
			results = append(results, st.Bytes)
		}
	}
	return transfers, results
}

// TestPriceIsOneRun: for every strategy, what one inference at the
// placement's sample shape actually hands the enclave, Invoke by Invoke,
// and what it releases are the transfer and result bytes of the script
// Price prices. The same holds at a batch the placement was not sized for,
// where the run is the batched script.
func TestPriceIsOneRun(t *testing.T) {
	v := victim(5)
	d := tee.RaspberryPi3()
	for _, s := range []Strategy{FullTEE{}, DarkneTZ{SplitAt: 0}, DarkneTZ{SplitAt: 2}, ShadowNet{}, MirrorNet{}} {
		for _, n := range []int{1, 3} {
			in := append([]int{n}, shape[1:]...)
			p, err := s.Place(v, d, in)
			if err != nil {
				t.Fatal(err)
			}
			one, err := s.Place(v, d, shape)
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				p      *Placement
				script tee.Script
			}{{p, p.Script()}, {one, batched(one.script, n)}} {
				rec := &recorder{Program: run.p.enclave}
				run.p.enclave = rec
				run.p.Infer(sample(n, 6))
				transfers, results := crossings(run.script)
				if !reflect.DeepEqual(rec.invoked, transfers) || !reflect.DeepEqual(rec.released, results) {
					t.Fatalf("%s, batch %d on a batch-%d placement: the run invoked %v and released %v, the script transfers %v and releases %v",
						s.Name(), n, run.p.batch, rec.invoked, rec.released, transfers, results)
				}
			}
			if p.Price() <= 0 {
				t.Fatalf("%s, batch %d: price %v", s.Name(), n, p.Price())
			}
		}
	}
}

// charged returns a fresh meter charged with s.
func charged(s tee.Script) *tee.Meter {
	var m tee.Meter
	m.Charge(s)
	return &m
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
	if charged(p.Script()).Flops(tee.REE) != 0 {
		t.Fatal("full-TEE must not compute in the REE")
	}
	if p.Price() <= 0 {
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
	if part.Price() >= full.Price() {
		t.Fatalf("partitioned %.6fs should beat full-TEE %.6fs", part.Price(), full.Price())
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
	if charged(p.Script()).Switches() < len(v.Stages) {
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
