package tensor

import "testing"

func BenchmarkMatMul64(b *testing.B) {
	rng := NewRNG(1)
	x, y := New(64, 64), New(64, 64)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(y, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := NewRNG(2)
	x, y := New(256, 256), New(256, 256)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(y, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

// BenchmarkMatMulInto256 is the steady-state serving shape of the kernel:
// the destination is preplanned and reused, so the only cost is compute.
func BenchmarkMatMulInto256(b *testing.B) {
	rng := NewRNG(2)
	x, y := New(256, 256), New(256, 256)
	dst := New(256, 256)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(y, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// loweringShapes is the one shape table the paired patch-lowering benchmarks
// share, so an f32 row and an int8 row with the same name always moved the
// same image through the same window.
var loweringShapes = []struct {
	name                    string
	c, h, w, k, stride, pad int
}{
	{"ref16x16x16_k3s1p1", 16, 16, 16, 3, 1, 1}, // bench/'s reference conv (VGG18-S)
	{"64x32x32_k3s1p1", 64, 32, 32, 3, 1, 1},
	{"32x16x16_k1s1p0", 32, 16, 16, 1, 1, 0}, // pointwise: Conv2D skips the lowering these rows price
	{"16x32x32_k3s2p1", 16, 32, 32, 3, 2, 1},
}

// BenchmarkLowering prices what a convolution pays to build its GEMM input
// from one float32 CHW sample, per precision: f32 is Im2Col; int8 is the
// whole dynamic-quantization front end (MaxAbs, QuantizeI8HWC, Im2RowI8HWC);
// int8_chw_ref is the same front end through the retained channel-major
// reference (QuantizeI8, Im2RowI8) the HWC path is tested against.
func BenchmarkLowering(b *testing.B) {
	for _, s := range loweringShapes {
		rng := NewRNG(3)
		src := make([]float32, s.c*s.h*s.w)
		for i := range src {
			src[i] = float32(rng.Norm())
		}
		colLen := Im2ColLen(s.c, s.h, s.w, s.k, s.k, s.stride, s.pad)
		b.Run(s.name+"/f32", func(b *testing.B) {
			dst := make([]float32, colLen)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Im2Col(src, s.c, s.h, s.w, s.k, s.k, s.stride, s.pad, dst)
			}
		})
		qin, dst := make([]int8, len(src)), make([]int8, colLen)
		b.Run(s.name+"/int8", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				QuantizeI8HWC(src, s.c, s.h*s.w, QuantScale(MaxAbs(src)), qin)
				Im2RowI8HWC(qin, s.c, s.h, s.w, s.k, s.k, s.stride, s.pad, dst)
			}
		})
		b.Run(s.name+"/int8_chw_ref", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				QuantizeI8(src, QuantScale(MaxAbs(src)), qin)
				Im2RowI8(qin, s.c, s.h, s.w, s.k, s.k, s.stride, s.pad, dst)
			}
		})
	}
}
