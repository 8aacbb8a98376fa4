package zoo

import (
	"fmt"
	"math"
	"testing"

	"tbnet/internal/nn"
	"tbnet/internal/tensor"
)

// BenchmarkConvBlockInferInto is the stage rung above nn's
// BenchmarkConvForwardInto: one ConvBlock (conv → batch norm → ReLU) on a
// single sample in both precisions, as the fused InferInto and as the three
// layer passes it stands for, over VGG18-S's eight stages in order (the
// second is bench/'s reference conv). The stages the model pools after have
// a third leg, pooled: the same block's InferInto with its 2×2 max pool, so
// pooled − fused is what the pool costs there.
func BenchmarkConvBlockInferInto(b *testing.B) {
	for _, g := range []struct {
		inC, outC, hw int
		pool          bool
	}{
		{3, 16, 16, false}, {16, 16, 16, true}, {16, 32, 8, false}, {32, 32, 8, true},
		{32, 48, 4, false}, {48, 48, 4, true}, {48, 64, 2, false}, {64, 64, 2, true},
	} {
		for _, precision := range []string{"f32", "int8"} {
			blk := NewConvBlock("b", g.inC, g.outC, 1, 1, tensor.NewRNG(2))
			if precision == "int8" {
				d, s := quantRows(blk.Conv.W.Value.Data(), g.outC, g.inC*9)
				if err := blk.Conv.SetInt8Weights(d, s); err != nil {
					b.Fatal(err)
				}
			}
			pooled := *blk
			pooled.Pool = nn.NewMaxPool2D("b.pool", 2)
			x := tensor.New(1, g.inC, g.hw, g.hw)
			tensor.NewRNG(1).FillNormal(x, 0, 1)
			dst := tensor.New(blk.OutShape(x.Shape())...)
			a := nn.NewArena()
			legs := []struct {
				name string
				run  func()
			}{
				{"fused", func() { blk.InferInto(dst, x, a) }},
				{"layers", func() {
					blk.Conv.ForwardInto(dst, x, a)
					normInto(blk.BN, dst)
					blk.Act.ForwardInto(dst, dst, a)
				}},
			}
			if g.pool {
				pdst := tensor.New(pooled.OutShape(x.Shape())...)
				legs = append(legs, struct {
					name string
					run  func()
				}{"pooled", func() { pooled.InferInto(pdst, x, a) }})
			}
			for _, leg := range legs {
				leg.run()
				b.Run(fmt.Sprintf("%dx%dx%d_to%d/%s/%s", g.inC, g.hw, g.hw, g.outC, precision, leg.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						leg.run()
					}
				})
			}
		}
	}
}

// BenchmarkDWBlockInferInto is the same rung for MobileNet-S's six
// depthwise-separable blocks in order, float32 on a single sample: fused is
// InferInto, the depthwise kernel finishing its outputs with BN1 and ReLU;
// layers is the depthwise conv, then BN1 and ReLU as passes of their own,
// then the same fused pointwise conv — so layers − fused is what the two
// passes cost.
func BenchmarkDWBlockInferInto(b *testing.B) {
	for _, g := range []struct{ inC, outC, hw, stride int }{
		{16, 24, 16, 1}, {24, 32, 16, 2}, {32, 32, 8, 1}, {32, 48, 8, 2}, {48, 48, 4, 1}, {48, 64, 4, 2},
	} {
		blk := NewDWBlock("b", g.inC, g.outC, g.stride, tensor.NewRNG(2))
		x := tensor.New(1, g.inC, g.hw, g.hw)
		tensor.NewRNG(1).FillNormal(x, 0, 1)
		mid := tensor.New(blk.DW.OutShape(x.Shape())...)
		dst := tensor.New(blk.OutShape(x.Shape())...)
		a := nn.NewArena()
		for _, leg := range []struct {
			name string
			run  func()
		}{
			{"fused", func() { blk.InferInto(dst, x, a) }},
			{"layers", func() {
				blk.DW.ForwardInto(mid, x, a)
				normInto(blk.BN1, mid)
				blk.Act1.ForwardInto(mid, mid, a)
				blk.PW.ForwardIntoBN(dst, mid, a, blk.BN2, true)
			}},
		} {
			leg.run()
			b.Run(fmt.Sprintf("%dx%dx%d_to%d_s%d/%s", g.inC, g.hw, g.hw, g.outC, g.stride, leg.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					leg.run()
				}
			})
		}
	}
}

// normInto is eval-mode batch norm as a pass of its own, in place on t: the
// work the fused kernels fold into their epilogue.
func normInto(bn *nn.BatchNorm2D, t *tensor.Tensor) {
	hw := t.Dim(2) * t.Dim(3)
	for ch := 0; ch < bn.C; ch++ {
		inv := float32(1 / math.Sqrt(float64(bn.RunVar.Data()[ch])+bn.Eps))
		g, beta, mu := bn.Gamma.Value.Data()[ch], bn.Beta.Value.Data()[ch], bn.RunMean.Data()[ch]
		for i := 0; i < t.Dim(0); i++ {
			row := t.Data()[(i*bn.C+ch)*hw : (i*bn.C+ch+1)*hw]
			for p, v := range row {
				row[p] = g*(v-mu)*inv + beta
			}
		}
	}
}
