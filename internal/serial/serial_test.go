package serial

import (
	"bytes"
	"testing"

	"tbnet/internal/core"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

func randX(n int, seed uint64) *tensor.Tensor {
	x := tensor.New(n, 3, 16, 16)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	return x
}

// roundTripModel saves m as both branches of a deployment artifact, the one
// format a model is loaded from, and returns the loaded M_R.
func roundTripModel(t *testing.T, m *zoo.Model) *zoo.Model {
	t.Helper()
	tb := &core.TwoBranch{MR: m, MT: m, Align: make([][]int, len(m.Stages)), Finalized: true}
	got, err := LoadDeployment(bytes.NewReader(artifactBytes(t, &Artifact{TB: tb, Device: "rpi3", SampleShape: []int{1, 3, 16, 16}})))
	if err != nil {
		t.Fatal(err)
	}
	return got.TB.MR
}

func assertSameFunction(t *testing.T, a, b *zoo.Model, seed uint64) {
	t.Helper()
	x := randX(2, seed)
	ya := a.Forward(x.Clone(), false)
	yb := b.Forward(x.Clone(), false)
	if !ya.SameShape(yb) {
		t.Fatalf("output shapes differ: %v vs %v", ya.Shape(), yb.Shape())
	}
	for i := range ya.Data() {
		if ya.Data()[i] != yb.Data()[i] {
			t.Fatalf("outputs differ at %d: %v vs %v", i, ya.Data()[i], yb.Data()[i])
		}
	}
}

func TestModelRoundTripVGG(t *testing.T) {
	m := zoo.BuildVGG(zoo.VGG18Config(10), tensor.NewRNG(1))
	got := roundTripModel(t, m)
	if got.Name != m.Name || got.Arch != m.Arch || got.Classes != m.Classes {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	assertSameFunction(t, m, got, 2)
}

func TestModelRoundTripResNet(t *testing.T) {
	m := zoo.BuildResNet(zoo.ResNet20Config(10), true, tensor.NewRNG(3))
	assertSameFunction(t, m, roundTripModel(t, m), 4)
}

func TestModelRoundTripPlainResNet(t *testing.T) {
	m := zoo.BuildResNet(zoo.TinyResNetConfig(5), false, tensor.NewRNG(5))
	got := roundTripModel(t, m)
	for _, s := range got.Stages {
		if rb, ok := s.(*zoo.ResBlock); ok && (rb.WithSkip || rb.Down != nil) {
			t.Fatal("plain-chain flag lost in round trip")
		}
	}
	assertSameFunction(t, m, got, 6)
}

func TestModelRoundTripPruned(t *testing.T) {
	// Pruned models have asymmetric widths — the round trip must preserve
	// exact dimensions, not reconstruct from the original config.
	m := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(7))
	g := m.Groups()[1]
	m.ApplyKeep(g, []int{0, 2, 5, 7, 9})
	got := roundTripModel(t, m)
	if got.Stages[g.Stage].OutChannels() != 5 {
		t.Fatalf("pruned width lost: %d", got.Stages[g.Stage].OutChannels())
	}
	assertSameFunction(t, m, got, 8)
}

func TestModelRoundTripPrunedResBlockInternal(t *testing.T) {
	m := zoo.BuildResNet(zoo.TinyResNetConfig(4), true, tensor.NewRNG(9))
	g := m.Groups()[0]
	rb := m.Stages[g.Stage].(*zoo.ResBlock)
	var keep []int
	for i := 0; i < rb.Conv1.OutC-2; i++ {
		keep = append(keep, i)
	}
	m.ApplyKeep(g, keep)
	got := roundTripModel(t, m)
	grb := got.Stages[g.Stage].(*zoo.ResBlock)
	if grb.Conv1.OutC != rb.Conv1.OutC {
		t.Fatalf("internal width lost: %d vs %d", grb.Conv1.OutC, rb.Conv1.OutC)
	}
	assertSameFunction(t, m, got, 10)
}

func TestTwoBranchRoundTrip(t *testing.T) {
	victim := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(11))
	tb := core.NewTwoBranch(victim, 12)
	// A non-trivial alignment: reversed channel order at stage 1.
	w := tb.MT.Stages[1].OutChannels()
	perm := make([]int, w)
	for i := range perm {
		perm[i] = w - 1 - i
	}
	tb.Align[1] = perm
	tb.Finalized = true

	art, err := LoadDeployment(bytes.NewReader(artifactBytes(t, &Artifact{TB: tb, Device: "rpi3", SampleShape: []int{1, 3, 16, 16}})))
	if err != nil {
		t.Fatal(err)
	}
	got := art.TB
	if !got.Finalized {
		t.Fatal("finalized flag lost")
	}
	if got.Align[0] != nil || got.Align[1] == nil {
		t.Fatalf("alignment lost: %v", got.Align)
	}
	x := randX(2, 13)
	// Alignment indices within bounds pre-checked by Forward; compare output.
	a := tb.Forward(x.Clone(), false)
	b := got.Forward(x.Clone(), false)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("two-branch round trip changed the function")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{[]byte("not a deployment file at all"), {1, 2, 3}} {
		if _, err := LoadDeployment(bytes.NewReader(in)); err == nil {
			t.Fatalf("garbage %q accepted as a deployment", in)
		}
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	full := artifactBytes(t, &Artifact{TB: finalizedTwoBranch(t, 14, "vgg"), Device: "rpi3", SampleShape: []int{1, 3, 16, 16}})
	for _, cut := range []int{8, len(full) / 2, len(full) - 3} {
		if _, err := LoadDeployment(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestLoadRejectsWrongMagic(t *testing.T) {
	m := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(15))
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	// A model file is not a deployment file.
	if _, err := LoadDeployment(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("model file accepted as a deployment file")
	}
}

func TestModelRoundTripMobileNet(t *testing.T) {
	m := zoo.BuildMobileNet(zoo.MobileNetSConfig(10), tensor.NewRNG(30))
	assertSameFunction(t, m, roundTripModel(t, m), 31)
}

func TestModelRoundTripPrunedMobileNet(t *testing.T) {
	m := zoo.BuildMobileNet(zoo.MobileNetSConfig(5), tensor.NewRNG(32))
	g := m.Groups()[1]
	m.ApplyKeep(g, []int{0, 3, 5, 7, 9})
	assertSameFunction(t, m, roundTripModel(t, m), 33)
}
