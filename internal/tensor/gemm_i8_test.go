package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refGemmI8 is the obviously-correct reference: a plain triple loop in exact
// int32 arithmetic, dot-product orientation.
func refGemmI8(dst []int32, a, b []int8, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s int32
			for p := 0; p < k; p++ {
				s += int32(a[i*k+p]) * int32(b[j*k+p])
			}
			dst[i*n+j] = s
		}
	}
}

func randI8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(255) - 127)
	}
	return out
}

// i8Kernels lists the int8 micro kernels best first, the order
// forEachI8Kernel and the benchmarks walk them in.
var i8Kernels = []i8Kernel{i8VNNI, i8AVX2, i8Scalar}

// forEachI8Kernel runs fn as one subtest per int8 micro kernel with the
// dispatch pinned to it — VNNI, then AVX2, then scalar — and skips, by name,
// a leg whose gate this CPU or platform does not pass (withI8Level).
func forEachI8Kernel(t *testing.T, fn func(t *testing.T)) {
	for _, l := range i8Kernels {
		t.Run(l.String(), func(t *testing.T) {
			if !withI8Level(l, func() { fn(t) }) {
				t.Skipf("no %v kernel on this CPU", l)
			}
		})
	}
}

// TestKernelStatusNamesInt8Kernel: the status line names the int8 kernel the
// dispatch is on — with a gate shut, the only way an operator learns the
// daemon runs a slower one.
func TestKernelStatusNamesInt8Kernel(t *testing.T) {
	forEachI8Kernel(t, func(t *testing.T) {
		if got, want := KernelStatus(), " int8="+i8Level.String()+" "; !strings.Contains(got, want) {
			t.Fatalf("KernelStatus() = %q, want it to contain %q", got, want)
		}
	})
}

// gemmI8Split cuts the product at every row block across the pool whatever
// its size, so the chunk seams are exercised on shapes the dispatch rule
// keeps on one goroutine.
func gemmI8Split(dst []int32, a, b []int8, m, n, k int) {
	splitRows(m, 1, func(r0, r1 int) { gemmI8Rows(dst, a, b, n, k, r0, r1) })
}

// checkGemmI8 runs the serial, the dispatched and the always-split product
// on the active kernel into dirty destinations and compares every element
// with refGemmI8.
func checkGemmI8(t testing.TB, a, b []int8, m, n, k int) {
	t.Helper()
	want := make([]int32, m*n)
	refGemmI8(want, a, b, m, n, k)
	for name, gemm := range map[string]func([]int32, []int8, []int8, int, int, int){
		"serial": GemmI8Serial, "parallel": GemmI8Parallel, "split": gemmI8Split,
	} {
		got := make([]int32, m*n)
		for i := range got {
			got[i] = -1 // the kernel must fully overwrite dst
		}
		gemm(got, a, b, m, n, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("[%dx%dx%d] %s dst[%d] = %d, want %d", m, n, k, name, i, got[i], want[i])
			}
		}
	}
}

// TestGemmI8MatchesReference sweeps, on every kernel, shapes that cover the
// row-quad path and the remainder rows, the 16- and 32-byte bodies and their
// tails (k%32 of 0, 16 and 27 among them), patch counts on both sides of a
// multiple of four and of the patch tile, and the eight conv products of a
// VGG18-S branch. Operands are the quantizers' range with -128 — which the
// artifact loader accepts — scattered over both.
func TestGemmI8MatchesReference(t *testing.T) {
	shapes := [][3]int{ // m, n, k
		{1, 1, 1}, {1, 1, 15}, {1, 1, 16}, {1, 1, 17},
		{3, 2, 33}, {4, 5, 16}, {5, 4, 31}, {8, 7, 64},
		{9, 3, 48}, {16, i8PatchTile + 3, 40}, {7, 11, 0},
		{4, 4, 32}, {8, 6, 96}, {4, 9, 59}, {12, 13, 91}, {4, 1, 5}, {8, 3, 300},
		{8, i8PatchTile - 1, 27}, {8, i8PatchTile + 4, 48}, {4, 2*i8PatchTile + 5, 33},
	}
	shapes = append(shapes, gemmShapes[:8]...)
	forEachI8Kernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, s := range shapes {
			m, n, k := s[0], s[1], s[2]
			a, b := randI8(rng, m*k), randI8(rng, n*k)
			for i := 0; i < (m+n)*k/7; i++ {
				a[rng.Intn(len(a))], b[rng.Intn(len(b))] = -128, -128
			}
			checkGemmI8(t, a, b, m, n, k)
		}
	})
}

// FuzzGemmI8MatchesReference drives every kernel this CPU runs — serial,
// dispatched and split at every row block — over arbitrary (m, n, k) and
// arbitrary bytes against the reference.
func FuzzGemmI8MatchesReference(f *testing.F) {
	f.Add(uint8(4), uint16(16), uint16(27), []byte{1, 0x80, 0x7f})
	f.Add(uint8(9), uint16(259), uint16(300), []byte{0x80})
	f.Add(uint8(64), uint16(4), uint16(576), []byte{0xff, 3, 0x80, 0x7f, 0x81})
	f.Fuzz(func(t *testing.T, m uint8, n, k uint16, data []byte) {
		mm, nn, kk := int(m)%70+1, int(n)%300+1, int(k)%700
		// The operands repeat data at two strides that share no factor with a
		// power of two, so rows differ and every byte value data holds lands
		// in every lane position.
		fill := func(n, stride int) []int8 {
			out := make([]int8, n)
			for i := range out {
				if len(data) > 0 {
					out[i] = int8(data[i*stride%len(data)]) + int8(i/251)
				}
			}
			return out
		}
		a, b := fill(mm*kk, 3), fill(nn*kk, 7)
		for _, l := range i8Kernels {
			withI8Level(l, func() { checkGemmI8(t, a, b, mm, nn, kk) })
		}
	})
}

// TestGemmI8ParallelBitIdenticalToSerial locks the pool dispatch: a product
// large enough to fan out across workers must agree with the serial kernel
// on every element (integer accumulation makes any difference a bug, not a
// rounding artifact).
func TestGemmI8ParallelBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n, k := 160, i8PatchTile+70, 330
	if Workers() > 1 && !fansOut(m, n, k) {
		t.Fatalf("%dx%dx%d no longer fans out: pick a bigger product", m, n, k)
	}
	a, b := randI8(rng, m*k), randI8(rng, n*k)
	serial := make([]int32, m*n)
	GemmI8Serial(serial, a, b, m, n, k)
	parallel := make([]int32, m*n)
	GemmI8Parallel(parallel, a, b, m, n, k)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("dst[%d]: serial %d vs parallel %d", i, serial[i], parallel[i])
		}
	}
}

// TestGemmI8ExtremeValuesExact pins the accumulation at the saturation-prone
// corner: all-(-127) times all-(+127) rows are exactly representable and
// must come out exact — this is the case a vpmaddubsw-based kernel would
// saturate on.
func TestGemmI8ExtremeValuesExact(t *testing.T) {
	const k = 257 // odd: exercises both the 16-wide body and the tail
	a := make([]int8, 4*k)
	b := make([]int8, k)
	for i := range a {
		a[i] = -127
	}
	for i := range b {
		b[i] = 127
	}
	dst := make([]int32, 4)
	GemmI8Serial(dst, a, b, 4, 1, k)
	want := int32(-127 * 127 * k)
	for i, got := range dst {
		if got != want {
			t.Fatalf("row %d = %d, want %d", i, got, want)
		}
	}
}

// TestGemmI8LongRowsWrapExactly: at k = 70 000 with every byte +127 the VNNI
// kernel's offset sums (255·127·k) pass 2^31 while the true dot products
// (127²·k) do not; the correction must bring them back exactly, and the
// -128 corners — the largest products there are — must be exact as well, on
// every kernel, for the quad rows, the remainder row, a full patch tile of
// four and the odd patch row after it.
func TestGemmI8LongRowsWrapExactly(t *testing.T) {
	const m, n, k = 5, 5, 70000
	forEachI8Kernel(t, func(t *testing.T) {
		for _, v := range [][2]int8{{127, 127}, {-128, -128}, {-128, 127}, {127, -128}} {
			a, b := make([]int8, m*k), make([]int8, n*k)
			for i := range a {
				a[i] = v[0]
			}
			for i := range b {
				b[i] = v[1]
			}
			dst := make([]int32, m*n)
			GemmI8Serial(dst, a, b, m, n, k)
			want := int32(v[0]) * int32(v[1]) * k
			for i, got := range dst {
				if got != want {
					t.Fatalf("%d x %d: dst[%d] = %d, want %d", v[0], v[1], i, got, want)
				}
			}
		}
	})
}

// checkRequantizeRows holds RequantizeRows, on whichever path the gates
// select, to its definition written out — requantize, then batch norm's and
// ReLU's own loops — for every epilogue combination (none, BN, BN+ReLU),
// with and without a bias, every row length around the eight-lane step, and
// scales, biases and BN values that make the accumulators' images NaN, ±Inf
// and -0.
func checkRequantizeRows(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	inf, nan, negZero := float32(math.Inf(1)), float32(math.NaN()), float32(math.Copysign(0, -1))
	// One row per column below: ordinary values first, then the non-finite
	// ones, each against every scale and bias in turn.
	bn := Epilogue{
		Mean:   []float32{0.25, -1.5, 0, inf, 0, nan, 0},
		Gamma:  []float32{1.5, -0.75, negZero, 1, 1, 1, -1},
		InvStd: []float32{0.9, 2.5, 1, 1, inf, 1, 1},
		Beta:   []float32{-0.1, 0.3, negZero, 0, 0, 0, negZero},
	}
	relu := bn
	relu.ReLU = true
	rows := len(bn.Mean)
	scales := []float32{0.0123, -0.004, 1, -1, inf, nan, 3e38}
	biases := []float32{0.5, 0, negZero, inf, -inf, nan, negZero}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 64, 256} {
		acc := make([]int32, rows*n)
		for i := range acc {
			acc[i] = int32(rng.Uint32()) >> uint(rng.Intn(24))
		}
		for r := 0; r < rows; r++ {
			acc[r*n], acc[r*n+n/2] = 0, 0
			acc[r*n+n-1] = []int32{math.MinInt32, math.MaxInt32, -1}[(n+r)%3]
		}
		for shift := 0; shift < rows; shift++ {
			sc := append(append([]float32{}, scales[shift:]...), scales[:shift]...)
			bs := append(append([]float32{}, biases[(2*shift)%rows:]...), biases[:(2*shift)%rows]...)
			for _, sx := range []float32{0.031, -2, inf} {
				for ei, ep := range []*Epilogue{nil, &bn, &relu} {
					for _, bias := range [][]float32{bs, nil} {
						want := make([]float32, rows*n)
						for r := 0; r < rows; r++ {
							f := sc[r] * sx
							var b float32
							if bias != nil {
								b = bias[r]
							}
							row := want[r*n : (r+1)*n]
							for p := range row {
								row[p] = float32(acc[r*n+p])*f + b
							}
							if ep == nil {
								continue
							}
							mu, g, inv, bt := ep.Mean[r], ep.Gamma[r], ep.InvStd[r], ep.Beta[r]
							for p := range row {
								row[p] = g*(row[p]-mu)*inv + bt
							}
							for p, v := range row {
								if ep.ReLU && !(v > 0) {
									row[p] = 0
								}
							}
						}
						got := poisoned(rows*n+2, 1)[:rows*n+1] // one guard element past the last row
						RequantizeRows(got[:rows*n], acc, n, sc, sx, bias, ep)
						for i := range want {
							if !sameF32(got[i], want[i]) {
								t.Fatalf("n=%d shift=%d sx=%v epilogue=%d bias=%v: dst[%d][%d] = %v (acc %d), want %v",
									n, shift, sx, ei, bias != nil, i/n, i%n, got[i], acc[i], want[i])
							}
						}
						if got[rows*n] == got[rows*n] {
							t.Fatalf("n=%d: wrote past the last row", n)
						}
					}
				}
			}
		}
	}
}

// TestRequantizeRowsMatchesDefinition runs the table on the dispatched path.
func TestRequantizeRowsMatchesDefinition(t *testing.T) { checkRequantizeRows(t) }

// TestQuantScaleZeroIsOne: an all-zero tensor must quantize with scale 1,
// never 0, so nothing downstream divides by zero or multiplies into NaN.
func TestQuantScaleZeroIsOne(t *testing.T) {
	if s := QuantScale(0); s != 1 {
		t.Fatalf("QuantScale(0) = %v, want 1", s)
	}
	if s := QuantScale(254); s != 2 {
		t.Fatalf("QuantScale(254) = %v, want 2", s)
	}
}

// TestQuantizeI8Rounding locks the round-half-away-from-zero rule and the
// ±127 clamp.
func TestQuantizeI8Rounding(t *testing.T) {
	xs := []float32{0, 0.4, 0.5, 0.6, -0.4, -0.5, -0.6, 126.4, 127, 300, -300}
	dst := make([]int8, len(xs))
	QuantizeI8(xs, 1, dst)
	want := []int8{0, 0, 1, 1, 0, -1, -1, 126, 127, 127, -127}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("QuantizeI8(%v) = %d, want %d", xs[i], dst[i], want[i])
		}
	}
}

// TestIm2RowI8MatchesIm2Col: the int8 patch-major lowering must be the exact
// transpose of the float32 k-major lowering on the same values, including
// the zero padding.
func TestIm2RowI8MatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, h, w := 3, 7, 6
	for _, cfg := range [][3]int{{3, 1, 1}, {3, 2, 0}, {2, 2, 1}, {1, 1, 0}} {
		kk, stride, pad := cfg[0], cfg[1], cfg[2]
		src8 := randI8(rng, c*h*w)
		srcF := make([]float32, len(src8))
		for i, v := range src8 {
			srcF[i] = float32(v)
		}
		oh := ConvOutDim(h, kk, stride, pad)
		ow := ConvOutDim(w, kk, stride, pad)
		kdim, p := c*kk*kk, oh*ow
		cols := make([]float32, kdim*p)
		Im2Col(srcF, c, h, w, kk, kk, stride, pad, cols)
		rows := make([]int8, p*kdim)
		goh, gow := Im2RowI8(src8, c, h, w, kk, kk, stride, pad, rows)
		if goh != oh || gow != ow {
			t.Fatalf("k%d s%d p%d: out dims %dx%d, want %dx%d", kk, stride, pad, goh, gow, oh, ow)
		}
		for pi := 0; pi < p; pi++ {
			for ki := 0; ki < kdim; ki++ {
				if float32(rows[pi*kdim+ki]) != cols[ki*p+pi] {
					t.Fatalf("k%d s%d p%d: patch %d elem %d: %d vs %v",
						kk, stride, pad, pi, ki, rows[pi*kdim+ki], cols[ki*p+pi])
				}
			}
		}
	}
}

// BenchmarkGemmI8 is the int8 analogue of BenchmarkMatMul256: a 256³ product
// through the full dispatch (pool + SIMD when available).
func BenchmarkGemmI8(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const d = 256
	x, y := randI8(rng, d*d), randI8(rng, d*d)
	dst := make([]int32, d*d)
	b.SetBytes(2 * d * d * d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmI8Parallel(dst, x, y, d, d, d)
	}
}

// BenchmarkGemmI8Shapes is the int8 kernel's shape-matched rung: the eight
// conv products of one VGG18-S branch (gemmShapes, as BenchmarkGemm times
// them in float32) through GemmI8Serial — what i8Sample calls per sample of
// a batch — once per kernel this CPU runs. MB/s reads as MACs/µs.
func BenchmarkGemmI8Shapes(b *testing.B) {
	for _, l := range i8Kernels {
		for _, s := range gemmShapes[:8] {
			m, n, k := s[0], s[1], s[2]
			rng := rand.New(rand.NewSource(5))
			x, y := randI8(rng, m*k), randI8(rng, n*k)
			dst := make([]int32, m*n)
			b.Run(fmt.Sprintf("%v/%dx%dx%d", l, m, n, k), func(b *testing.B) {
				b.SetBytes(int64(m * n * k))
				ran := withI8Level(l, func() {
					for i := 0; i < b.N; i++ {
						GemmI8Serial(dst, x, y, m, n, k)
					}
				})
				if !ran {
					b.Skipf("no %v kernel on this CPU", l)
				}
			})
		}
	}
}
