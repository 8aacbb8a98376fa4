package tensor

import (
	"fmt"
	"testing"
)

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

// gemmShapes names the GEMM rung: the eight conv products of one VGG18-S
// branch ([OutC, 9*InC] @ [9*InC, OH*OW], first to last stage) and the two
// cubes of BenchmarkMatMul64/256.
var gemmShapes = [][3]int{ // m, n, k
	{16, 256, 27}, {16, 256, 144}, {32, 64, 144}, {32, 64, 288},
	{48, 16, 288}, {48, 16, 432}, {64, 4, 432}, {64, 4, 576},
	{64, 64, 64}, {256, 256, 256},
}

// BenchmarkGemm times the float32 kernel per dispatch form and shape, into a
// preplanned destination. Every VGG18-S shape is below the dispatch
// threshold, so its two rows time the same serial sweep; MB/s reads as
// MACs/µs.
func BenchmarkGemm(b *testing.B) {
	for _, form := range []struct {
		name string
		gemm func(dst, a, b []float32, m, n, k int)
	}{{"serial", GemmSerial}, {"parallel", GemmParallel}} {
		for _, s := range gemmShapes {
			m, n, k := s[0], s[1], s[2]
			x, y := gemmOperands(NewRNG(4), m, n, k, false)
			dst := make([]float32, m*n)
			b.Run(fmt.Sprintf("%s/%dx%dx%d", form.name, m, n, k), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(m * n * k))
				for i := 0; i < b.N; i++ {
					form.gemm(dst, x.data, y.data, m, n, k)
				}
			})
		}
	}
}

// BenchmarkGemmCrossover is the measurement parallelMACs is chosen from: one
// cube per total-MAC decade step from 0.1 M to 300 M, in both precisions,
// run on the calling goroutine and cut in two across the pool whatever the
// dispatch rule says. The fanout rows of a quiet tight loop are the best
// case for fanning out — the pool worker is still spinning when the next
// product arrives — so the crossover read here is a lower bound on W.
func BenchmarkGemmCrossover(b *testing.B) {
	for _, d := range []int{46, 100, 144, 215, 310, 464, 670} {
		x, y := gemmOperands(NewRNG(5), d, d, d, false)
		dst := make([]float32, d*d)
		qx, qy, acc := make([]int8, d*d), make([]int8, d*d), make([]int32, d*d)
		for i := range qx {
			qx[i], qy[i] = int8(i*7), int8(i*13)
		}
		half := (d + rowBlock - 1) / rowBlock / 2 // row blocks per worker: two chunks
		qw := PackI8Weights(qx, d, d, 1)
		halfI8 := (d + qw.rowUnit() - 1) / qw.rowUnit() / 2
		for _, leg := range []struct {
			name string
			run  func()
		}{
			{"f32/serial", func() { matmulRows(dst, x.data, y.data, d, d, 0, d, nil) }},
			{"f32/fanout", func() {
				splitRows(d, half, func(r0, r1 int) { matmulRows(dst, x.data, y.data, d, d, r0, r1, nil) })
			}},
			{"int8/serial", func() { gemmI8Rows(acc, qw, qy, d, 0, d) }},
			{"int8/fanout", func() {
				splitI8Rows(qw, halfI8, func(r0, r1 int) { gemmI8Rows(acc, qw, qy, d, r0, r1) })
			}},
		} {
			b.Run(fmt.Sprintf("%s/%.1fM", leg.name, float64(d*d*d)/1e6), func(b *testing.B) {
				b.SetBytes(int64(d * d * d))
				for i := 0; i < b.N; i++ {
					leg.run()
				}
			})
		}
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
		qin, dst := make([]int8, I8PlaneLen(s.c, s.h, s.w, s.pad)), make([]int8, colLen)
		b.Run(s.name+"/int8", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				QuantizeI8HWC(src, s.c, s.h, s.w, s.pad, QuantScale(MaxAbs(src)), qin)
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
