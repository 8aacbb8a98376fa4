package tensor

import (
	"math/rand"
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

// TestGemmI8MatchesReference sweeps shapes that cover the row-quad path, the
// remainder rows, the SIMD 16-byte body, its scalar tail, and the patch-tile
// boundary.
func TestGemmI8MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{
		{1, 1, 1}, {1, 1, 15}, {1, 1, 16}, {1, 1, 17},
		{3, 2, 33}, {4, 5, 16}, {5, 4, 31}, {8, 7, 64},
		{9, 3, 48}, {16, i8PatchTile + 3, 40}, {7, 11, 0},
	}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a, b := randI8(rng, m*k), randI8(rng, n*k)
		want := make([]int32, m*n)
		refGemmI8(want, a, b, m, n, k)
		got := make([]int32, m*n)
		for i := range got {
			got[i] = -1 // the kernel must fully overwrite dst
		}
		GemmI8Serial(got, a, b, m, n, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("[%dx%dx%d] serial dst[%d] = %d, want %d", m, n, k, i, got[i], want[i])
			}
		}
		GemmI8Parallel(got, a, b, m, n, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("[%dx%dx%d] parallel dst[%d] = %d, want %d", m, n, k, i, got[i], want[i])
			}
		}
	}
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
