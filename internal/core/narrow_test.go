package core

import (
	"reflect"
	"sync"
	"testing"

	"tbnet/internal/nn"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// narrowPack is the address of the narrow-kernel pack conv holds (0 for
// none): the field is nn's own, read here only to see who holds what.
func narrowPack(c *nn.Conv2D) uintptr {
	return reflect.ValueOf(c).Elem().FieldByName("narrow").Pointer()
}

// frozenNorm reports whether bn holds inverse standard deviations a
// deployment derived (BatchNorm2D.Freeze).
func frozenNorm(bn *nn.BatchNorm2D) bool {
	return !reflect.ValueOf(bn).Elem().FieldByName("invStd").IsNil()
}

// planConvs walks m's stages at sampleShape and calls fn with each
// convolution and the geometry it runs at.
func planConvs(m *zoo.Model, sampleShape []int, fn func(c *nn.Conv2D, g tensor.ConvGeom)) {
	at := func(c *nn.Conv2D, in []int) {
		fn(c, tensor.ConvGeom{C: c.InC, H: in[2], W: in[3], KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad})
	}
	in := sampleShape
	for _, s := range m.Stages {
		switch s := s.(type) {
		case *zoo.ConvBlock:
			at(s.Conv, in)
		case *zoo.DWBlock:
			at(s.PW, s.DW.OutShape(in))
		case *zoo.ResBlock:
			at(s.Conv1, in)
			at(s.Conv2, s.Conv1.OutShape(in))
			if s.Down != nil {
				at(s.Down, in)
			}
		}
		in = s.OutShape(in)
	}
}

// deployedVictim deploys a fresh finalized two-branch model of victim at
// batch 1.
func deployedVictim(t *testing.T, victim *zoo.Model, seed uint64) (*TwoBranch, *Deployment) {
	t.Helper()
	tb := NewTwoBranch(victim, seed)
	tb.Finalized = true
	dep, err := Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	return tb, dep
}

// TestDeployFreezesOnce locks who derives what: Deploy packs exactly the
// float32 convolutions whose planned product the narrow kernel runs
// (VGG18-S's 2×2 stages, MobileNet-S's last pointwise conv) and derives
// every norm's inverse std; a replica, a second Deploy of the same branches
// and a Snapshot re-deploy keep those very packs; ExtractedMR's copy holds
// neither; and an int8 deployment packs no float32 weights.
func TestDeployFreezesOnce(t *testing.T) {
	shape := []int{1, 3, 16, 16}
	for _, victim := range []*zoo.Model{
		zoo.BuildVGG(zoo.VGG18Config(4), tensor.NewRNG(301)),
		zoo.BuildMobileNet(zoo.MobileNetSConfig(4), tensor.NewRNG(302)),
		zoo.BuildResNet(zoo.TinyResNetConfig(4), true, tensor.NewRNG(303)),
	} {
		tb, dep := deployedVictim(t, victim, 304)
		packs := map[*nn.Conv2D]uintptr{}
		narrow := 0
		for _, m := range []*zoo.Model{tb.MR, tb.MT} {
			planConvs(m, shape, func(c *nn.Conv2D, g tensor.ConvGeom) {
				packs[c] = narrowPack(c)
				if (packs[c] != 0) != tensor.NarrowConv(g) {
					t.Errorf("%s %s at %+v: packed %v, narrow %v", victim.Name, c.Name(), g, packs[c] != 0, tensor.NarrowConv(g))
				}
				if packs[c] != 0 {
					narrow++
				}
			})
			for _, s := range m.Stages {
				for _, bn := range s.Norms() {
					if !frozenNorm(bn) {
						t.Errorf("%s %s: inverse std not derived at deploy", victim.Name, bn.Name())
					}
				}
			}
		}
		if victim.Arch != "resnet" && tensor.NarrowConv(tensor.ConvGeom{C: 1, H: 2, W: 2, KH: 1, KW: 1, Stride: 1}) && narrow == 0 {
			t.Errorf("%s: no convolution runs the narrow kernel", victim.Name)
		}

		if _, err := dep.ReplicateOn(tee.RaspberryPi3(), 2, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := Deploy(tb, tee.RaspberryPi3(), shape); err != nil {
			t.Fatal(err)
		}
		if _, err := Deploy(dep.Snapshot(), tee.RaspberryPi3(), shape); err != nil {
			t.Fatal(err)
		}
		for c, p := range packs {
			if narrowPack(c) != p {
				t.Errorf("%s %s: pack replaced after deploy", victim.Name, c.Name())
			}
		}

		stolen := dep.ExtractedMR()
		planConvs(stolen, shape, func(c *nn.Conv2D, _ tensor.ConvGeom) {
			if narrowPack(c) != 0 {
				t.Errorf("%s %s: ExtractedMR carries the deployment's pack", victim.Name, c.Name())
			}
		})
		for _, s := range stolen.Stages {
			for _, bn := range s.Norms() {
				if frozenNorm(bn) {
					t.Errorf("%s %s: ExtractedMR carries derived statistics", victim.Name, bn.Name())
				}
			}
		}
	}

	tb := NewTwoBranch(zoo.BuildVGG(zoo.VGG18Config(4), tensor.NewRNG(305)), 306)
	tb.Finalized = true
	dep, err := DeployInt8(tb, tee.RaspberryPi3(), shape)
	if err != nil {
		t.Fatal(err)
	}
	planConvs(dep.mr, shape, func(c *nn.Conv2D, _ tensor.ConvGeom) {
		if narrowPack(c) != 0 {
			t.Errorf("int8 %s: packed float32 weights", c.Name())
		}
	})
}

// TestConcurrentDeploysFreezeOnce: sessions deployed at once from the same
// fresh branches, each inferring as soon as it exists, derive the packs
// once between them and agree on every label (go test -race makes the lock
// bite).
func TestConcurrentDeploysFreezeOnce(t *testing.T) {
	tb := NewTwoBranch(zoo.BuildVGG(zoo.VGG18Config(4), tensor.NewRNG(321)), 322)
	tb.Finalized = true
	x := randX(1, 323)
	labels := make([]int, 4)
	var wg sync.WaitGroup
	for g := range labels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dep, err := Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
			if err != nil {
				t.Error(err)
				return
			}
			got, err := dep.Infer(x)
			if err != nil {
				t.Error(err)
				return
			}
			labels[g] = got[0]
		}()
	}
	wg.Wait()
	for g, l := range labels {
		if l != labels[0] {
			t.Fatalf("session %d labels %d, session 0 %d", g, l, labels[0])
		}
	}
}

// inferLogits runs m's inference path (every stage's InferInto, then the
// head's) on x through a fresh arena.
func inferLogits(m *zoo.Model, x *tensor.Tensor) *tensor.Tensor {
	a := nn.NewArena()
	for _, s := range m.Stages {
		y := tensor.New(s.OutShape(x.Shape())...)
		s.InferInto(y, x, a)
		x = y
	}
	out := tensor.New(x.Dim(0), m.Classes)
	m.Head.InferInto(out, x, a)
	return out
}

// TestExtractedMRNeverReadsAStalePack: the attacker's copy of M_R trains.
// Scaling the weights of one of its 2×2 convolutions changes its logits
// exactly as the tile path computes them (Forward, which never reads a
// pack), while the deployment, whose branch and pack were not touched,
// keeps its labels.
func TestExtractedMRNeverReadsAStalePack(t *testing.T) {
	tb, dep := deployedVictim(t, zoo.BuildVGG(zoo.VGG18Config(4), tensor.NewRNG(311)), 312)
	x := randX(1, 313)
	before, err := dep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	stolen := dep.ExtractedMR()
	unscaled := inferLogits(stolen, x)
	conv := stolen.Stages[len(stolen.Stages)-1].(*zoo.ConvBlock).Conv
	if h := stolen.StageShapes([]int{1, 3, 16, 16})[len(stolen.Stages)-2]; h[2] != 2 || h[3] != 2 {
		t.Fatalf("the last stage's input is %v, not 2×2", h)
	}
	for i, v := range conv.W.Value.Data() {
		conv.W.Value.Data()[i] = 1.5 * v
	}
	got, want := inferLogits(stolen, x), stolen.Forward(x, false)
	same := true
	for i, v := range got.Data() {
		if v != want.Data()[i] {
			t.Fatalf("logit %d = %v, tile path %v", i, v, want.Data()[i])
		}
		same = same && v == unscaled.Data()[i]
	}
	if same {
		t.Fatal("scaling a conv's weights left the logits unchanged")
	}
	after, err := dep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != before[0] || &tb.MR.Stages[len(tb.MR.Stages)-1].(*zoo.ConvBlock).Conv.W.Value.Data()[0] == &conv.W.Value.Data()[0] {
		t.Fatal("scaling the extracted copy reached the deployment")
	}
}
