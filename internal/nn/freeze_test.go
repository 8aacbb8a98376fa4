package nn

import (
	"math"
	"testing"

	"tbnet/internal/tensor"
)

// This file locks what a deployment derives once on a layer — a
// convolution's narrow pack, a norm's inverse std — against the per-call
// path: the same bits, held only where the deployment put them.

// convBNReLU is the deployed form of conv → bn → ReLU (ForwardIntoBN) on x.
func convBNReLU(c *Conv2D, bn *BatchNorm2D, x *tensor.Tensor) []float32 {
	dst := tensor.New(c.OutShape(x.Shape())...)
	dst.Fill(99)
	c.ForwardIntoBN(dst, x, NewArena(), bn, true)
	return dst.Data()
}

// testNorm is a norm over c channels with drawn statistics.
func testNorm(c int, rng *tensor.RNG) *BatchNorm2D {
	bn := NewBatchNorm2D("bn", c)
	for _, t := range []*tensor.Tensor{bn.Gamma.Value, bn.Beta.Value, bn.RunMean} {
		rng.FillNormal(t, 0, 1)
	}
	for i := range bn.RunVar.Data() {
		bn.RunVar.Data()[i] = float32(0.1 + rng.Float64())
	}
	return bn
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v, per-call path %v", what, i, got[i], want[i])
		}
	}
}

// TestFreezeIsBitIdenticalAndHeldOnce: a frozen norm and a packed 2×2
// convolution produce the per-call path's bits at batch 1 (the pool-free
// product) and batch 3 (one sample per worker); a second Freeze or
// PackNarrow keeps the first derivation; only a narrow, float32 product is
// packed; and clones, pruning and re-initialisation drop both.
func TestFreezeIsBitIdenticalAndHeldOnce(t *testing.T) {
	rng := tensor.NewRNG(81)
	for _, s := range []struct{ inC, outC, k, hw int }{{48, 64, 3, 2}, {48, 64, 1, 2}, {20, 40, 3, 1}, {16, 32, 3, 8}} {
		conv := NewConv2D("c", s.inC, s.outC, s.k, 1, s.k/2, false, rng)
		bn := testNorm(s.outC, rng)
		for _, n := range []int{1, 3} {
			x := tensor.New(n, s.inC, s.hw, s.hw)
			rng.FillNormal(x, 0, 1)
			want := convBNReLU(conv, bn, x)
			cf, bf := CloneOf(conv).(*Conv2D), CloneOf(bn).(*BatchNorm2D)
			cf.PackNarrow(x.Shape())
			bf.Freeze()
			g := tensor.ConvGeom{C: s.inC, H: s.hw, W: s.hw, KH: s.k, KW: s.k, Stride: 1, Pad: s.k / 2}
			if (cf.narrow != nil) != tensor.NarrowConv(g) {
				t.Fatalf("%+v: packed %v, narrow %v", s, cf.narrow != nil, tensor.NarrowConv(g))
			}
			pack, inv := cf.narrow, &bf.invStd[0]
			cf.PackNarrow(x.Shape())
			bf.Freeze()
			if cf.narrow != pack || &bf.invStd[0] != inv {
				t.Fatalf("%+v: a second freeze re-derived", s)
			}
			sameBits(t, "frozen", convBNReLU(cf, bf, x), want)
			sameBits(t, "training forward", cf.Forward(x, false).Data(), conv.Forward(x, false).Data())

			if c2, b2 := CloneOf(cf).(*Conv2D), CloneOf(bf).(*BatchNorm2D); c2.narrow != nil || b2.invStd != nil {
				t.Fatalf("%+v: a clone kept the derived state", s)
			}
			cf.Reinit(rng)
			bf.Reinit(rng)
			if cf.narrow != nil || bf.invStd != nil {
				t.Fatalf("%+v: re-initialisation kept the derived state", s)
			}
			cf.PackNarrow(x.Shape())
			bf.Freeze()
			cf.PruneOutput([]int{0, 2})
			bf.Prune([]int{0, 2})
			if cf.narrow != nil || bf.invStd != nil {
				t.Fatalf("%+v: pruning kept the derived state", s)
			}
			cf = CloneOf(conv).(*Conv2D)
			cf.PackNarrow(x.Shape())
			if cf.PruneInput([]int{1}); cf.narrow != nil {
				t.Fatalf("%+v: input pruning kept the pack", s)
			}
		}
	}
	// An int8-armed convolution has no float32 product to pack.
	conv := NewConv2D("q", 8, 4, 3, 1, 1, false, rng)
	qdata, qscales := quantizeRowsRef(conv.W.Value.Data(), 4, 72)
	if err := conv.SetInt8Weights(qdata, qscales); err != nil {
		t.Fatal(err)
	}
	if conv.PackNarrow([]int{1, 8, 2, 2}); conv.narrow != nil {
		t.Fatal("packed an int8 convolution")
	}
}
