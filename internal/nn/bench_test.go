package nn

import (
	"fmt"
	"testing"

	"tbnet/internal/tensor"
)

func benchInput(n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	tensor.NewRNG(1).FillNormal(x, 0, 1)
	return x
}

func BenchmarkConvForward(b *testing.B) {
	conv := NewConv2D("c", 16, 32, 3, 1, 1, false, tensor.NewRNG(2))
	x := benchInput(8, 16, 16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

// convShapes is the one shape table the paired conv-layer benchmarks share:
// a batch of 8 through the same geometries as tensor's loweringShapes, so the
// f32 and int8 rows of one name always did the same convolution.
var convShapes = []struct {
	name                          string
	inC, outC, hw, k, stride, pad int
}{
	{"ref16x16x16_k3s1p1", 16, 32, 16, 3, 1, 1},
	{"64x32x32_k3s1p1", 64, 64, 32, 3, 1, 1},
	{"32x16x16_k1s1p0", 32, 64, 16, 1, 1, 0},
	{"16x32x32_k3s2p1", 16, 32, 32, 3, 2, 1},
}

// BenchmarkConvForwardInto is the steady-state serving shape of the
// convolution in both precisions: output and scratch preplanned in an arena,
// so the only cost is compute. The int8 leg arms the same layer with
// quantized weights and keeps the dynamic activation quantization inside the
// measured loop. The paired ns/op figures are the raw-kernel half of the
// f32-vs-int8 comparison.
func BenchmarkConvForwardInto(b *testing.B) {
	for _, s := range convShapes {
		for _, precision := range []string{"f32", "int8"} {
			conv := NewConv2D("c", s.inC, s.outC, s.k, s.stride, s.pad, false, tensor.NewRNG(2))
			if precision == "int8" {
				qdata, qscales := quantizeRowsRef(conv.W.Value.Data(), s.outC, s.inC*s.k*s.k)
				if err := conv.SetInt8Weights(qdata, qscales); err != nil {
					b.Fatal(err)
				}
			}
			x := benchInput(8, s.inC, s.hw, s.hw)
			dst := tensor.New(conv.OutShape(x.Shape())...)
			a := NewArena()
			conv.ForwardInto(dst, x, a)
			b.Run(s.name+"/"+precision, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					conv.ForwardInto(dst, x, a)
				}
			})
		}
	}
}

func BenchmarkConvBackward(b *testing.B) {
	conv := NewConv2D("c", 16, 32, 3, 1, 1, false, tensor.NewRNG(3))
	x := benchInput(8, 16, 16, 16)
	out := conv.Forward(x, true)
	g := tensor.New(out.Shape()...)
	tensor.NewRNG(4).FillNormal(g, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Backward(g)
	}
}

func BenchmarkBatchNormForward(b *testing.B) {
	bn := NewBatchNorm2D("bn", 32)
	x := benchInput(8, 32, 16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn.Forward(x, true)
	}
}

func BenchmarkDenseForward(b *testing.B) {
	d := NewDense("fc", 512, 100, tensor.NewRNG(5))
	x := tensor.New(32, 512)
	tensor.NewRNG(6).FillNormal(x, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Forward(x, false)
	}
}

// BenchmarkMaxPoolForwardInto is the inference pool on VGG18-S's four pooled
// stage outputs, one sample of post-ReLU data (about half the values are +0).
// It rotates through 64 inputs, as bench/'s clients do: on one repeated input
// the branch predictor learns a branching pool's every comparison and the
// row reads several times faster than serving ever sees.
func BenchmarkMaxPoolForwardInto(b *testing.B) {
	pool := NewMaxPool2D("p", 2)
	relu := NewReLU("r")
	for _, s := range []struct{ c, hw int }{{16, 16}, {32, 8}, {48, 4}, {64, 2}} {
		xs := make([]*tensor.Tensor, 64)
		for i := range xs {
			xs[i] = tensor.New(1, s.c, s.hw, s.hw)
			tensor.NewRNG(uint64(i+1)).FillNormal(xs[i], 0, 1)
			relu.ForwardInto(xs[i], xs[i], nil)
		}
		dst := tensor.New(pool.OutShape(xs[0].Shape())...)
		b.Run(fmt.Sprintf("%dx%dx%d", s.c, s.hw, s.hw), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool.ForwardInto(dst, xs[i%len(xs)], nil)
			}
		})
	}
}
