package core_test

import (
	"testing"

	"tbnet/internal/core"
	"tbnet/internal/nn"
	"tbnet/internal/registry"
	"tbnet/internal/serial"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// TestServedReplicaHoldsNoGradients: a model loaded from the registry, and
// each replica a fleet worker makes of it, holds no gradient accumulator at
// either precision. The first Backward on a loaded model allocates them,
// bit-identical to the gradients of the same weights built in memory.
func TestServedReplicaHoldsNoGradients(t *testing.T) {
	tb := core.NewTwoBranch(zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(1)), 2)
	tb.Finalized = true
	dev, shape := tee.RaspberryPi3(), []int{1, 3, 16, 16}
	q, err := core.DeployInt8(tb, dev, shape)
	if err != nil {
		t.Fatal(err)
	}
	store, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	arts := map[string]*serial.Artifact{
		"f32":  {TB: tb, Device: "rpi3", SampleShape: shape},
		"int8": {TB: q.Snapshot(), Device: "rpi3", SampleShape: shape},
	}
	for name, art := range arts {
		if _, err := store.Save(name, art); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := store.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := loaded.Deploy(nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := dep.ReplicateOn(dev, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []*core.Deployment{dep, rep} {
			mr, mt := core.Branches(d)
			for _, p := range append(mr.Params(), mt.Params()...) {
				if p.Grad != nil {
					t.Fatalf("%s: served parameter %s holds a gradient buffer", name, p.Name)
				}
			}
		}
	}

	loaded, _, err := store.Load("f32")
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3, 16, 16)
	tensor.NewRNG(3).FillNormal(x, 0, 1)
	labels := []int{0, 1, 2, 3}
	for _, pair := range [][2]*zoo.Model{{tb.MR, loaded.TB.MR}, {tb.MT, loaded.TB.MT}} {
		for _, m := range pair {
			_, grad := nn.SoftmaxCrossEntropy(m.Forward(x, true), labels)
			m.Backward(grad)
		}
		built, got := pair[0].Params(), pair[1].Params()
		for i, p := range got {
			if p.Grad == nil {
				t.Fatalf("%s: no gradient after Backward", p.Name)
			}
			want, have := built[i].Grad.Data(), p.Grad.Data()
			for j := range want {
				if want[j] != have[j] {
					t.Fatalf("%s: gradient %d = %v, built in memory %v", p.Name, j, have[j], want[j])
				}
			}
		}
	}
}
