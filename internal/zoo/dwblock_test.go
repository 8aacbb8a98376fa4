package zoo

import (
	"math"
	"slices"
	"testing"

	"tbnet/internal/nn"
	"tbnet/internal/tensor"
)

func TestMobileNetForwardShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := BuildMobileNet(MobileNetSConfig(10), rng)
	if m.Arch != "mobilenet" || len(m.Stages) != 7 { // stem + 6 blocks
		t.Fatalf("arch %s, %d stages", m.Arch, len(m.Stages))
	}
	out := m.Forward(randImages(2, 3, 16, 16, 2), false)
	if out.Dim(0) != 2 || out.Dim(1) != 10 {
		t.Fatalf("logits = %v", out.Shape())
	}
}

func TestMobileNetGroups(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := BuildMobileNet(MobileNetSConfig(10), rng)
	groups := m.Groups()
	// Stem output + every DW block output are prunable.
	if len(groups) != 7 {
		t.Fatalf("groups = %d, want 7", len(groups))
	}
	for _, g := range groups {
		if g.Kind != GroupOutput {
			t.Fatalf("group %v should be output kind", g)
		}
	}
}

func TestDWBlockPrunePreservesFunction(t *testing.T) {
	rng := tensor.NewRNG(4)
	m := BuildMobileNet(MobileNetSConfig(5), rng)
	x := randImages(2, 3, 16, 16, 5)
	g := m.Groups()[1] // first DW block
	blk := m.Stages[g.Stage].(*DWBlock)
	blk.BN2.Gamma.Value.Data()[2] = 0
	blk.BN2.Beta.Value.Data()[2] = 0
	before := m.Forward(x.Clone(), false)

	var keep []int
	for i := 0; i < blk.OutChannels(); i++ {
		if i != 2 {
			keep = append(keep, i)
		}
	}
	m.ApplyKeep(g, keep)
	after := m.Forward(x.Clone(), false)
	for i := range before.Data() {
		if math.Abs(float64(before.Data()[i]-after.Data()[i])) > 1e-4 {
			t.Fatal("pruning a dead DW-block channel changed the output")
		}
	}
}

func TestDWBlockPruneInputSide(t *testing.T) {
	rng := tensor.NewRNG(6)
	m := BuildMobileNet(MobileNetSConfig(5), rng)
	// Prune the stem's output: the following DW block's input side must track.
	g := m.Groups()[0]
	keep := []int{0, 2, 4, 6}
	m.ApplyKeep(g, keep)
	blk := m.Stages[1].(*DWBlock)
	if blk.InChannels() != 4 || blk.DW.C != 4 || blk.PW.InC != 4 {
		t.Fatalf("input side not pruned: in=%d dw=%d pw=%d",
			blk.InChannels(), blk.DW.C, blk.PW.InC)
	}
	out := m.Forward(randImages(1, 3, 16, 16, 7), false)
	if out.Dim(1) != 5 {
		t.Fatalf("logits = %v", out.Shape())
	}
}

// scratchCaps is each pool worker's float32 arena scratch capacity.
func scratchCaps(a *nn.Arena) []int {
	caps := make([]int, tensor.Workers())
	for w := range caps {
		caps[w] = cap(a.ColScratch(w, 0))
	}
	return caps
}

// TestDWBlockInferIntoSteadyState: the depthwise kernel's zero-bordered plane
// comes from the arena, beside the depthwise output the block parks there,
// so once the arena is warm a block neither grows it nor, for one sample,
// allocates — at both strides, and across the pool at batch 3.
func TestDWBlockInferIntoSteadyState(t *testing.T) {
	for _, stride := range []int{1, 2} {
		blk := NewDWBlock("b", 16, 24, stride, tensor.NewRNG(12))
		plane := tensor.DepthwiseScratchLen(tensor.ConvGeom{C: 16, H: 16, W: 16, KH: 3, KW: 3, Stride: stride, Pad: 1})
		for _, batch := range []int{1, 3} {
			a := nn.NewArena()
			x := randImages(batch, 16, 16, 16, 13)
			dst := tensor.New(blk.OutShape(x.Shape())...)
			blk.InferInto(dst, x, a)
			mid := blk.DW.OutShape(x.Shape())
			parked := a.Tensor4(blk.Name(), mid[0], mid[1], mid[2], mid[3])
			warm := scratchCaps(a)
			if held := cap(a.ColScratch(0, 0)); held < plane {
				t.Fatalf("stride %d batch %d: worker 0's arena scratch holds %d floats, under one plane (%d)",
					stride, batch, held, plane)
			}
			run := func() { blk.InferInto(dst, x, a) }
			if batch == 1 {
				if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
					t.Fatalf("stride %d: %v allocations per warm InferInto, want 0", stride, allocs)
				}
			}
			run()
			if got := scratchCaps(a); !slices.Equal(got, warm) ||
				a.Tensor4(blk.Name(), mid[0], mid[1], mid[2], mid[3]) != parked {
				t.Fatalf("stride %d batch %d: warm arena grew: worker scratch %v → %v, or the depthwise output moved",
					stride, batch, warm, got)
			}
		}
	}
}

func TestMobileNetCloneAndReinit(t *testing.T) {
	rng := tensor.NewRNG(8)
	m := BuildMobileNet(MobileNetSConfig(5), rng)
	cl := m.Clone()
	x := randImages(1, 3, 16, 16, 9)
	a := m.Forward(x.Clone(), false)
	b := cl.Forward(x.Clone(), false)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("clone diverges")
		}
	}
	cl.Reinitialize(tensor.NewRNG(10))
	c := cl.Forward(x.Clone(), false)
	same := true
	for i := range a.Data() {
		if a.Data()[i] != c.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("reinitialize did not change the function")
	}
}
