package zoo

import (
	"math"
	"testing"

	"tbnet/internal/nn"
	"tbnet/internal/tensor"
)

// warmStats pushes one training batch through a model so batch norms carry
// non-trivial running statistics (otherwise the eval path degenerates).
func warmStats(m *Model, seed uint64) {
	x := tensor.New(4, m.InC, 16, 16)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	m.Forward(x, true)
}

// perturbNorms gives every batch norm a non-trivial affine part (γ of both
// signs, β off zero), so a fused epilogue that dropped or reordered a term
// could not pass by multiplying by one and adding zero.
func perturbNorms(m *Model, seed uint64) {
	rng := tensor.NewRNG(seed)
	for _, p := range m.Params() {
		if !p.Decay && p.Value.Rank() == 1 { // γ and β; never the dense bias
			rng.FillNormal(p.Value, 0.3, 1)
		}
	}
}

// pruneEveryThird drops every third channel of every prunable group, which
// leaves channel counts that are not multiples of the kernels' row block.
func pruneEveryThird(m *Model) {
	for _, g := range m.Groups() {
		var keep []int
		for ch := 0; ch < m.GroupSize(g); ch++ {
			if ch%3 != 2 {
				keep = append(keep, ch)
			}
		}
		m.ApplyKeep(g, keep)
	}
}

// quantRows is the offline weight quantizer in miniature (zoo cannot import
// quant): symmetric per-row scales over a [rows, cols] matrix.
func quantRows(w []float32, rows, cols int) ([]int8, []float32) {
	data, scales := make([]int8, rows*cols), make([]float32, rows)
	for r := 0; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		scales[r] = tensor.QuantScale(tensor.MaxAbs(row))
		tensor.QuantizeI8(row, scales[r], data[r*cols:(r+1)*cols])
	}
	return data, scales
}

// armInt8 attaches quantized weights to every conv, depthwise and dense layer
// of m, so both Forward and InferInto run the int8 kernels.
func armInt8(t *testing.T, m *Model) {
	t.Helper()
	conv := func(c *nn.Conv2D) {
		if c == nil {
			return
		}
		d, s := quantRows(c.W.Value.Data(), c.OutC, c.InC*c.KH*c.KW)
		if err := c.SetInt8Weights(d, s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range m.Stages {
		switch b := s.(type) {
		case *ConvBlock:
			conv(b.Conv)
		case *ResBlock:
			conv(b.Conv1)
			conv(b.Conv2)
			conv(b.Down)
		case *DWBlock:
			d, sc := quantRows(b.DW.W.Value.Data(), b.DW.C, b.DW.K*b.DW.K)
			if err := b.DW.SetInt8Weights(d, sc); err != nil {
				t.Fatal(err)
			}
			conv(b.PW)
		}
	}
	fc := m.Head.FC
	d, sc := quantRows(tensor.Transpose(fc.W.Value).Data(), fc.Out, fc.In)
	if err := fc.SetInt8Weights(d, sc); err != nil {
		t.Fatal(err)
	}
}

// TestStageInferIntoMatchesForward locks the stage-level equivalence the
// deployment plan depends on: on every zoo builder, in both precisions, as
// built and after pruning, each stage's InferInto — convolutions finishing
// their own tiles with batch norm and ReLU — must be bit-identical to the
// eval-mode Forward chain of separate layers.
func TestStageInferIntoMatchesForward(t *testing.T) {
	builders := map[string]func(rng *tensor.RNG) *Model{
		"vgg":            func(rng *tensor.RNG) *Model { return BuildVGG(TinyVGGConfig(4), rng) },
		"vgg18":          func(rng *tensor.RNG) *Model { return BuildVGG(VGG18Config(10), rng) },
		"resnet":         func(rng *tensor.RNG) *Model { return BuildResNet(TinyResNetConfig(4), true, rng) },
		"resnet20":       func(rng *tensor.RNG) *Model { return BuildResNet(ResNet20Config(10), true, rng) },
		"resnet20-plain": func(rng *tensor.RNG) *Model { return BuildResNet(ResNet20Config(10), false, rng) },
		"mobilenet":      func(rng *tensor.RNG) *Model { return BuildMobileNet(MobileNetSConfig(4), rng) },
		"mobilenet-s":    func(rng *tensor.RNG) *Model { return BuildMobileNet(MobileNetSConfig(10), rng) },
	}
	for name, build := range builders {
		for _, pruned := range []bool{false, true} {
			for _, int8 := range []bool{false, true} {
				if testing.Short() && len(name) > 9 && (pruned || int8) {
					continue
				}
				m := build(tensor.NewRNG(7))
				perturbNorms(m, 9)
				warmStats(m, 11)
				label := name
				if pruned {
					pruneEveryThird(m)
					label += "/pruned"
				}
				if int8 {
					armInt8(t, m)
					label += "/int8"
				}
				checkModelInferInto(t, label, m)
			}
		}
	}
}

func checkModelInferInto(t *testing.T, name string, m *Model) {
	t.Helper()
	a := nn.NewArena()
	for _, batch := range []int{1, 3} {
		x := tensor.New(batch, m.InC, 16, 16)
		tensor.NewRNG(uint64(13+batch)).FillNormal(x, 0, 1)
		cur := x
		for _, s := range m.Stages {
			want := s.Forward(cur, false)
			dst := tensor.New(s.OutShape(cur.Shape())...)
			dst.Fill(42)
			s.InferInto(dst, cur, a)
			diffCheck(t, name, s.Name(), want, dst)
			// Run again through the warm arena: steady state must agree too.
			s.InferInto(dst, cur, a)
			diffCheck(t, name, s.Name(), want, dst)
			cur = want
		}
		want := m.Head.Forward(cur, false)
		dst := tensor.New(m.Head.OutShape(cur.Shape())...)
		m.Head.InferInto(dst, cur, a)
		diffCheck(t, name, m.Head.Name(), want, dst)
	}
}

func diffCheck(t *testing.T, model, layer string, want, got *tensor.Tensor) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s/%s: shape %v vs %v", model, layer, got.Shape(), want.Shape())
	}
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
			t.Fatalf("%s/%s: element %d = %v via InferInto, %v via Forward", model, layer, i, gd[i], wd[i])
		}
	}
}

// TestResBlockSkipVariantsInferInto covers the three skip configurations
// (projection, identity, stripped) explicitly.
func TestResBlockSkipVariantsInferInto(t *testing.T) {
	rng := tensor.NewRNG(21)
	blocks := []*ResBlock{
		NewResBlock("proj", 6, 8, 2, true, rng),  // projection skip
		NewResBlock("ident", 6, 6, 1, true, rng), // identity skip
		NewResBlock("plain", 6, 8, 1, false, rng),
	}
	for _, b := range blocks {
		x := tensor.New(2, 6, 8, 8)
		tensor.NewRNG(23).FillNormal(x, 0, 1)
		b.Forward(x, true) // warm BN stats
		want := b.Forward(x, false)
		dst := tensor.New(b.OutShape(x.Shape())...)
		b.InferInto(dst, x, nn.NewArena())
		diffCheck(t, "resblock", b.Name(), want, dst)
	}
}
