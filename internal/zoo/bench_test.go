package zoo

import (
	"fmt"
	"testing"

	"tbnet/internal/nn"
	"tbnet/internal/tensor"
)

// BenchmarkConvBlockInferInto is the stage rung above nn's
// BenchmarkConvForwardInto: one ConvBlock (conv → batch norm → ReLU, no
// pool) on a single sample in both precisions, as the fused InferInto and as
// the three layer passes it stands for. The geometries are VGG18-S's first,
// second (bench/'s reference conv), fourth and last stages.
func BenchmarkConvBlockInferInto(b *testing.B) {
	for _, g := range []struct{ inC, outC, hw int }{{3, 16, 16}, {16, 16, 16}, {32, 32, 8}, {64, 64, 2}} {
		for _, precision := range []string{"f32", "int8"} {
			blk := NewConvBlock("b", g.inC, g.outC, 1, 1, tensor.NewRNG(2))
			if precision == "int8" {
				d, s := quantRows(blk.Conv.W.Value.Data(), g.outC, g.inC*9)
				if err := blk.Conv.SetInt8Weights(d, s); err != nil {
					b.Fatal(err)
				}
			}
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
