package tensor_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"tbnet/internal/core"
	"tbnet/internal/nn"
	"tbnet/internal/quant"
	"tbnet/internal/serial"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// i8Layouts names the two packed layouts WithI8Layout pins.
var i8Layouts = []struct {
	name string
	amx  bool
}{{"row-major", false}, {"amx-tiles", true}}

// prunedVGG is a VGG whose widths are what pruning leaves: weight rows
// k ≢ 0 (mod 4) and channel counts m ≢ 0 (mod 16), which the tile layout
// pads.
func prunedVGG(classes int, rng *tensor.RNG) *zoo.Model {
	return zoo.BuildVGG(zoo.VGGConfig{Name: "PrunedVGG", Widths: []int{18, 17, 33},
		Pools: map[int]bool{0: true, 2: true}, Classes: classes, InC: 3}, rng)
}

// TestUnpackI8WeightsInvertsPack: at both packed layouts, unpacking a
// packed matrix returns the channel-major rows it was packed from, bit for
// bit — for every convolution and head of the zoo's models and for shapes
// whose k and m the tile layout pads.
func TestUnpackI8WeightsInvertsPack(t *testing.T) {
	type shape struct{ m, k, taps int }
	shapes := []shape{{17, 27, 9}, {33, 153, 9}, {5, 6, 1}, {31, 1, 1}, {1, 25, 25}, {16, 12, 1}}
	rng := tensor.NewRNG(1)
	for _, m := range []*zoo.Model{
		zoo.BuildVGG(zoo.VGG18Config(10), rng),
		zoo.BuildResNet(zoo.ResNet20Config(10), true, rng),
		zoo.BuildMobileNet(zoo.MobileNetSConfig(10), rng),
		zoo.BuildVGG(zoo.TinyVGGConfig(10), rng),
		prunedVGG(10, rng),
	} {
		for _, s := range m.Stages {
			for _, w := range s.Convs() {
				if c, ok := w.(*nn.Conv2D); ok { // a depthwise layer is not packed
					shapes = append(shapes, shape{c.OutC, c.InC * c.KH * c.KW, c.KH * c.KW})
				}
			}
		}
		shapes = append(shapes, shape{m.Head.FC.Out, m.Head.FC.In, 1})
	}
	src := rand.New(rand.NewSource(2))
	for _, l := range i8Layouts {
		ran := tensor.WithI8Layout(l.amx, func() {
			for _, s := range shapes {
				a := make([]int8, s.m*s.k)
				for i := range a {
					a[i] = int8(src.Intn(256) - 128)
				}
				want := append([]int8(nil), a...)
				if got := tensor.UnpackI8Weights(tensor.PackI8Weights(a, s.m, s.k, s.taps), s.taps); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %dx%d (%d taps): unpacked rows differ from the packed ones", l.name, s.m, s.k, s.taps)
				}
			}
		})
		if !ran {
			t.Logf("%s: this CPU does not run the layout", l.name)
		}
	}
}

// TestInt8ArtifactCrossesI8Layouts: an int8 artifact names no layout. Saved
// while packing at one layout, it loads at the other with bit-identical
// logits, and re-saves to the same bytes.
func TestInt8ArtifactCrossesI8Layouts(t *testing.T) {
	shape := []int{2, 3, 16, 16}
	x := tensor.New(shape...)
	tensor.NewRNG(3).FillNormal(x, 0, 1)
	victims := map[string]func(*tensor.RNG) *zoo.Model{
		"vgg":        func(r *tensor.RNG) *zoo.Model { return zoo.BuildVGG(zoo.TinyVGGConfig(5), r) },
		"resnet":     func(r *tensor.RNG) *zoo.Model { return zoo.BuildResNet(zoo.TinyResNetConfig(5), true, r) },
		"mobilenet":  func(r *tensor.RNG) *zoo.Model { return zoo.BuildMobileNet(zoo.MobileNetSConfig(5), r) },
		"pruned-vgg": func(r *tensor.RNG) *zoo.Model { return prunedVGG(5, r) },
	}
	for name, build := range victims {
		for _, from := range i8Layouts {
			to := i8Layouts[0]
			if !from.amx {
				to = i8Layouts[1]
			}
			t.Run(name+"/"+from.name+"-to-"+to.name, func(t *testing.T) {
				tb := core.NewTwoBranch(build(tensor.NewRNG(4)), 5)
				tb.Finalized = true
				var saved []byte
				var want *tensor.Tensor
				ok := tensor.WithI8Layout(from.amx, func() {
					q := &core.TwoBranch{MR: quant.Quantize(tb.MR), MT: quant.Quantize(tb.MT), Align: tb.Align, Finalized: true}
					saved = save(t, &serial.Artifact{TB: q, Device: "rpi3", SampleShape: shape})
					want = q.Forward(x.Clone(), false)
				}) && tensor.WithI8Layout(to.amx, func() {
					art, err := serial.LoadDeployment(bytes.NewReader(saved))
					if err != nil {
						t.Fatal(err)
					}
					if got := art.TB.Forward(x.Clone(), false); !reflect.DeepEqual(got.Data(), want.Data()) {
						t.Errorf("logits at %s %v, at %s %v", to.name, got.Data(), from.name, want.Data())
					}
					if !bytes.Equal(save(t, art), saved) {
						t.Error("the re-saved artifact differs from the loaded one")
					}
				})
				if !ok {
					t.Skip("this CPU does not run the AMX layout")
				}
			})
		}
	}
}

// save returns art's artifact bytes.
func save(t *testing.T, art *serial.Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serial.SaveDeployment(&buf, art); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
