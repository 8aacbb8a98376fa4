package zoo

import (
	"fmt"
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
					blk.BN.ForwardInto(dst, dst, a)
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
