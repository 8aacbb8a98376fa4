package profile

import (
	"testing"

	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

func TestConvBlockCostHandComputed(t *testing.T) {
	rng := tensor.NewRNG(1)
	b := zoo.NewConvBlock("b", 3, 8, 1, 1, rng)
	in := []int{1, 3, 16, 16}
	c := stageCost(b, in, b.OutShape(in))
	// Conv: 2 × (3·3·3) × (1·8·16·16) = 110592.
	wantConv := 2.0 * 27 * 8 * 256
	// BN 4/elem + ReLU 1/elem over 8·256 outputs.
	wantElem := 5.0 * 8 * 256
	if c.Flops != wantConv+wantElem {
		t.Fatalf("flops = %v, want %v", c.Flops, wantConv+wantElem)
	}
	// Params: 8×27 conv weights + 2×8 BN = 232 floats = 928 bytes.
	if c.ParamBytes != (8*27+16)*4 {
		t.Fatalf("param bytes = %d, want %d", c.ParamBytes, (8*27+16)*4)
	}
	if c.InBytes != 3*16*16*4 || c.OutBytes != 8*16*16*4 {
		t.Fatalf("activation bytes in/out = %d/%d", c.InBytes, c.OutBytes)
	}
}

func TestPoolReducesOutBytes(t *testing.T) {
	rng := tensor.NewRNG(2)
	b := zoo.NewConvBlock("b", 3, 8, 1, 2, rng)
	c := stageCost(b, []int{1, 3, 16, 16}, b.OutShape([]int{1, 3, 16, 16}))
	if c.OutBytes != 8*8*8*4 {
		t.Fatalf("pooled out bytes = %d, want %d", c.OutBytes, 8*8*8*4)
	}
}

func TestProfileTotalsConsistent(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := zoo.BuildVGG(zoo.VGG18Config(10), rng)
	mc := Profile(m, []int{1, 3, 16, 16})
	if len(mc.Stages) != 8 {
		t.Fatalf("stage costs = %d, want 8", len(mc.Stages))
	}
	var sum float64
	for _, s := range mc.Stages {
		if s.Flops <= 0 || s.ParamBytes <= 0 {
			t.Fatalf("stage %s has non-positive cost", s.Name)
		}
		sum += s.Flops
	}
	if mc.TotalFlops() <= sum {
		t.Fatal("total must include the head")
	}
	if mc.SecureFootprintBytes() != mc.TotalParamBytes()+mc.PeakActivationBytes() {
		t.Fatal("secure footprint identity violated")
	}
}

func TestPruningReducesCost(t *testing.T) {
	rng := tensor.NewRNG(4)
	m := zoo.BuildVGG(zoo.TinyVGGConfig(10), rng)
	before := Profile(m, []int{1, 3, 16, 16})
	g := m.Groups()[0]
	keep := make([]int, 0, m.GroupSize(g)/2)
	for i := 0; i < m.GroupSize(g); i += 2 {
		keep = append(keep, i)
	}
	m.ApplyKeep(g, keep)
	after := Profile(m, []int{1, 3, 16, 16})
	if after.TotalFlops() >= before.TotalFlops() {
		t.Fatal("pruning must reduce FLOPs")
	}
	if after.TotalParamBytes() >= before.TotalParamBytes() {
		t.Fatal("pruning must reduce parameter bytes")
	}
}

func TestResNetCostIncludesProjection(t *testing.T) {
	rng := tensor.NewRNG(5)
	withSkip := zoo.BuildResNet(zoo.TinyResNetConfig(10), true, rng)
	plain := zoo.StripSkips(withSkip)
	a := Profile(withSkip, []int{1, 3, 16, 16})
	b := Profile(plain, []int{1, 3, 16, 16})
	if a.TotalFlops() <= b.TotalFlops() {
		t.Fatal("skip-connected model must cost more FLOPs than the plain chain")
	}
	if a.TotalParamBytes() <= b.TotalParamBytes() {
		t.Fatal("projection convs must add parameter bytes")
	}
}

func TestBatchScalesFlopsNotParams(t *testing.T) {
	rng := tensor.NewRNG(6)
	m := zoo.BuildVGG(zoo.TinyVGGConfig(10), rng)
	one := Profile(m, []int{1, 3, 16, 16})
	four := Profile(m, []int{4, 3, 16, 16})
	if four.TotalFlops() != 4*one.TotalFlops() {
		t.Fatalf("flops should scale with batch: %v vs %v", four.TotalFlops(), one.TotalFlops())
	}
	if four.TotalParamBytes() != one.TotalParamBytes() {
		t.Fatal("params must not scale with batch")
	}
}
