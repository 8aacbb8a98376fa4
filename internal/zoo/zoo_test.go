package zoo

import (
	"math"
	"testing"

	"tbnet/internal/nn"
	"tbnet/internal/tensor"
)

func randImages(n, c, h, w int, seed uint64) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	return x
}

func TestVGGForwardShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := BuildVGG(VGG18Config(10), rng)
	out := m.Forward(randImages(2, 3, 16, 16, 99), false)
	if out.Dim(0) != 2 || out.Dim(1) != 10 {
		t.Fatalf("logits shape = %v, want [2 10]", out.Shape())
	}
}

func TestVGGStageShapes(t *testing.T) {
	rng := tensor.NewRNG(2)
	m := BuildVGG(VGG18Config(10), rng)
	shapes := m.StageShapes([]int{1, 3, 16, 16})
	// 8 stages + head output.
	if len(shapes) != 9 {
		t.Fatalf("got %d shapes, want 9", len(shapes))
	}
	// Pools after stages 1,3,5,7: spatial 16→8→4→2→1 (pool at stage ends).
	last := shapes[7]
	if last[2] != 1 || last[3] != 1 {
		t.Fatalf("final feature map %v, want 1×1 spatial", last)
	}
	logits := shapes[8]
	if logits[1] != 10 {
		t.Fatalf("head output %v, want 10 classes", logits)
	}
}

func TestResNetForwardShape(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := BuildResNet(ResNet20Config(10), true, rng)
	if len(m.Stages) != 10 { // stem + 9 blocks
		t.Fatalf("resnet20 has %d stages, want 10", len(m.Stages))
	}
	out := m.Forward(randImages(2, 3, 16, 16, 99), false)
	if out.Dim(0) != 2 || out.Dim(1) != 10 {
		t.Fatalf("logits shape = %v, want [2 10]", out.Shape())
	}
}

func TestResNetPlainVariantSameShapes(t *testing.T) {
	rng := tensor.NewRNG(4)
	withSkip := BuildResNet(TinyResNetConfig(10), true, rng)
	plain := StripSkips(withSkip)
	in := []int{1, 3, 16, 16}
	a := withSkip.StageShapes(in)
	b := plain.StageShapes(in)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("stage %d shapes differ: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

func TestStripSkipsRemovesSkipParams(t *testing.T) {
	rng := tensor.NewRNG(5)
	m := BuildResNet(ResNet20Config(10), true, rng)
	plain := StripSkips(m)
	for _, s := range plain.Stages {
		if rb, ok := s.(*ResBlock); ok {
			if rb.WithSkip || rb.Down != nil {
				t.Fatalf("block %s still has a skip after StripSkips", rb.Name())
			}
		}
	}
	if len(plain.Params()) >= len(m.Params()) {
		t.Fatal("plain variant should have fewer parameters (no projection convs)")
	}
}

func TestModelCloneIndependent(t *testing.T) {
	rng := tensor.NewRNG(6)
	m := BuildVGG(TinyVGGConfig(10), rng)
	cl := m.Clone()
	x := randImages(2, 3, 16, 16, 7)
	a := m.Forward(x.Clone(), false)
	b := cl.Forward(x.Clone(), false)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("clone forward differs from original")
		}
	}
	// Mutating the clone must not affect the original.
	cl.Stages[0].(*ConvBlock).Conv.W.Value.Fill(0)
	c := m.Forward(x.Clone(), false)
	for i := range a.Data() {
		if a.Data()[i] != c.Data()[i] {
			t.Fatal("clone mutation leaked into the original")
		}
	}
}

func TestVGGGroups(t *testing.T) {
	rng := tensor.NewRNG(8)
	m := BuildVGG(VGG18Config(10), rng)
	groups := m.Groups()
	if len(groups) != 8 {
		t.Fatalf("VGG has %d prunable groups, want 8", len(groups))
	}
	for _, g := range groups {
		if g.Kind != GroupOutput {
			t.Fatalf("VGG group %v should be an output group", g)
		}
		if m.GroupSize(g) != m.Stages[g.Stage].OutChannels() {
			t.Fatalf("group %v size mismatch", g)
		}
	}
}

func TestResNetGroups(t *testing.T) {
	rng := tensor.NewRNG(9)
	m := BuildResNet(ResNet20Config(10), true, rng)
	groups := m.Groups()
	if len(groups) != 9 { // one internal group per block; stem is fixed
		t.Fatalf("ResNet20 has %d prunable groups, want 9", len(groups))
	}
	for _, g := range groups {
		if g.Kind != GroupInternal {
			t.Fatalf("ResNet group %v should be internal", g)
		}
	}
}

// TestApplyKeepPreservesFunctionOnKeptChannels: zeroing a channel's γ and β
// then pruning it must leave the network function unchanged.
func TestApplyKeepPreservesFunction(t *testing.T) {
	rng := tensor.NewRNG(10)
	m := BuildVGG(TinyVGGConfig(10), rng)
	x := randImages(2, 3, 16, 16, 11)
	g := m.Groups()[1] // middle stage
	// Kill channel 3 of that stage: zero γ and β so its output is identically 0.
	blk := m.Stages[g.Stage].(*ConvBlock)
	blk.BN.Gamma.Value.Data()[3] = 0
	blk.BN.Beta.Value.Data()[3] = 0
	before := m.Forward(x.Clone(), false)

	keep := []int{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11}
	m.ApplyKeep(g, keep)
	after := m.Forward(x.Clone(), false)
	for i := range before.Data() {
		if math.Abs(float64(before.Data()[i]-after.Data()[i])) > 1e-4 {
			t.Fatalf("pruning a dead channel changed the output: %v vs %v",
				before.Data()[i], after.Data()[i])
		}
	}
	if blk.OutChannels() != 11 {
		t.Fatalf("stage width = %d after prune, want 11", blk.OutChannels())
	}
}

// TestResNetInternalPrunePreservesFunction: same property for a residual
// block's internal channels.
func TestResNetInternalPrunePreservesFunction(t *testing.T) {
	rng := tensor.NewRNG(12)
	m := BuildResNet(TinyResNetConfig(10), true, rng)
	x := randImages(2, 3, 16, 16, 13)
	g := m.Groups()[0]
	rb := m.Stages[g.Stage].(*ResBlock)
	rb.BN1.Gamma.Value.Data()[0] = 0
	rb.BN1.Beta.Value.Data()[0] = 0
	before := m.Forward(x.Clone(), false)

	var keep []int
	for i := 1; i < rb.Conv1.OutC; i++ {
		keep = append(keep, i)
	}
	m.ApplyKeep(g, keep)
	after := m.Forward(x.Clone(), false)
	for i := range before.Data() {
		if math.Abs(float64(before.Data()[i]-after.Data()[i])) > 1e-4 {
			t.Fatal("internal pruning of a dead channel changed the output")
		}
	}
}

func TestLastStagePruneAdjustsHead(t *testing.T) {
	rng := tensor.NewRNG(14)
	m := BuildVGG(TinyVGGConfig(10), rng)
	last := m.Groups()[len(m.Groups())-1]
	if last.Stage != len(m.Stages)-1 {
		t.Fatalf("last group stage = %d", last.Stage)
	}
	keep := []int{0, 2, 4, 6, 8, 10}
	m.ApplyKeep(last, keep)
	if m.Head.FC.In != len(keep) {
		t.Fatalf("head input = %d after prune, want %d", m.Head.FC.In, len(keep))
	}
	out := m.Forward(randImages(1, 3, 16, 16, 15), false)
	if out.Dim(1) != 10 {
		t.Fatalf("logits shape %v after prune", out.Shape())
	}
}

// TestModelTrainsOnToyTask: a few SGD steps must reduce the loss — an
// end-to-end sanity check of the whole stack.
func TestModelTrainsOnToyTask(t *testing.T) {
	rng := tensor.NewRNG(16)
	m := BuildVGG(TinyVGGConfig(2), rng)
	x := randImages(16, 3, 16, 16, 17)
	// Labels derived from a simple pixel statistic so they are learnable.
	labels := make([]int, 16)
	sample := x.Size() / 16
	for i := range labels {
		var s float32
		for p := 0; p < sample; p++ {
			s += x.Data()[i*sample+p]
		}
		if s > 0 {
			labels[i] = 1
		}
	}
	var first, last float64
	for step := 0; step < 30; step++ {
		logits := m.Forward(x, true)
		loss, grad := nn.SoftmaxCrossEntropy(logits, labels)
		if step == 0 {
			first = loss
		}
		last = loss
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
		m.Backward(grad)
		for _, p := range m.Params() {
			for i, g := range p.Grad.Data() {
				p.Value.Data()[i] -= 0.05 * g
			}
		}
	}
	if last >= first*0.9 {
		t.Fatalf("loss did not decrease: %v → %v", first, last)
	}
}

func TestResNetBackwardThroughSkip(t *testing.T) {
	rng := tensor.NewRNG(18)
	m := BuildResNet(TinyResNetConfig(2), true, rng)
	x := randImages(4, 3, 16, 16, 19)
	labels := []int{0, 1, 0, 1}
	logits := m.Forward(x, true)
	_, grad := nn.SoftmaxCrossEntropy(logits, labels)
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	dx := m.Backward(grad)
	if dx.Size() != x.Size() {
		t.Fatalf("input gradient size %d, want %d", dx.Size(), x.Size())
	}
	// Every parameter should receive some gradient.
	for _, p := range m.Params() {
		if tensor.MaxAbs(p.Grad.Data()) == 0 {
			t.Fatalf("parameter %s received zero gradient", p.Name)
		}
	}
}

// TestArchByName: every named architecture builds a victim with the asked
// class count, and any other name is refused.
func TestArchByName(t *testing.T) {
	for name, family := range map[string]string{"vgg": "vgg", "resnet": "resnet",
		"mobilenet": "mobilenet", "tiny-vgg": "vgg", "tiny-resnet": "resnet"} {
		build, ok := ArchByName(name)
		if !ok {
			t.Fatalf("ArchByName(%q) not found", name)
		}
		if m := build(7, tensor.NewRNG(1)); m.Arch != family || m.Classes != 7 {
			t.Fatalf("%s built a %s model with %d classes", name, m.Arch, m.Classes)
		}
	}
	if len(archs) != 5 {
		t.Fatalf("arch table has %d entries; extend this test with the new ones", len(archs))
	}
	if _, ok := ArchByName("transformer"); ok {
		t.Fatal("unknown architecture must not resolve")
	}
}
