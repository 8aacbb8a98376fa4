//go:build amd64

package tensor

import (
	"math/rand"
	"testing"
)

// withF32Level runs fn with the float32 dispatch pinned to level l and
// reports whether it could: a level above the detected one is one this CPU
// lacks.
func withF32Level(l f32Kernel, fn func()) bool {
	if l > f32Level {
		return false
	}
	defer func(v f32Kernel) { f32Level = v }(f32Level)
	f32Level = l
	fn()
	return true
}

// withI8Level runs fn with the int8 dispatch pinned to kernel l and reports
// whether it could: a kernel above the detected one is one this CPU lacks.
func withI8Level(l i8Kernel, fn func()) bool {
	if l > i8Level {
		return false
	}
	defer func(v i8Kernel) { i8Level = v }(i8Level)
	i8Level = l
	fn()
	return true
}

// TestDot4I8SIMDBitIdenticalToScalar drives the AVX2 micro kernel directly
// against the scalar quad kernel across every 16-byte-body/masked-tail split
// from its shortest row (16) up, including adversarial all-extreme rows.
// Integer accumulation means "close" is not an option: every output must be
// bit-identical.
func TestDot4I8SIMDBitIdenticalToScalar(t *testing.T) {
	if i8Level < i8AVX2 {
		t.Skip("no AVX2 int8 kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(11))
	for k := 16; k <= 70; k++ {
		rows := make([][]int8, 4)
		for r := range rows {
			rows[r] = randI8(rng, k)
		}
		x := randI8(rng, k)
		if k%3 == 0 { // saturation-prone corner a maddubs kernel would break on
			for j := range x {
				x[j] = 127
				rows[0][j] = -127
				rows[1][j] = -128
			}
		}
		if k%5 == 0 {
			x[k-1], rows[2][k-1] = -128, -128
		}
		var want, got [4]int32
		dot4I8Scalar(rows[0], rows[1], rows[2], rows[3], x, &want)
		dot4I8SIMD(&rows[0][0], &rows[1][0], &rows[2][0], &rows[3][0], &x[0], k, &got)
		if got != want {
			t.Fatalf("k=%d: SIMD %v vs scalar %v", k, got, want)
		}
	}
}

// TestGemmI8TileVNNIBitIdenticalToScalar is the same direct drive for the
// 4x4 tile kernel: every k up to three 32-byte steps and a tail, every patch
// count around two tiles of four, into a destination wider than the sweep
// whose other columns must come back untouched.
func TestGemmI8TileVNNIBitIdenticalToScalar(t *testing.T) {
	if i8Level < i8VNNI {
		t.Skip("no AVX512-VNNI int8 kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(13))
	for k := 1; k <= 100; k++ {
		for rows := 1; rows <= 9; rows++ {
			const n, j0 = 12, 2 // dst row stride, first column swept
			a, b := randI8(rng, 4*k), randI8(rng, rows*k)
			if k%3 == 0 {
				for j := 0; j < k; j++ {
					a[j], a[k+j], b[j] = -128, 127, -128
				}
			}
			got := make([]int32, 4*n)
			for i := range got {
				got[i] = -1
			}
			args := i8TileArgs{dst: &got[j0], a: &a[0], b: &b[0], ldc: n, lda: k, k: k, rows: rows}
			gemmI8TileVNNI(&args)
			for j := 0; j < n; j++ {
				want := [4]int32{-1, -1, -1, -1}
				if j >= j0 && j < j0+rows {
					x := b[(j-j0)*k : (j-j0+1)*k]
					dot4I8Scalar(a[:k], a[k:2*k], a[2*k:3*k], a[3*k:], x, &want)
				}
				for r, w := range want {
					if got[r*n+j] != w {
						t.Fatalf("k=%d rows=%d: dst[%d][%d] = %d, want %d", k, rows, r, j, got[r*n+j], w)
					}
				}
			}
		}
	}
}

// TestGemmI8SIMDBitIdenticalToScalarFallback runs the whole blocked kernel
// on each vector kernel and on the scalar one and requires bit-identical
// output — the dispatch choice must be unobservable.
func TestGemmI8SIMDBitIdenticalToScalarFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, n, k := 33, 29, 83
	a, b := randI8(rng, m*k), randI8(rng, n*k)
	scalar := make([]int32, m*n)
	withI8Level(i8Scalar, func() { gemmI8Serial(scalar, a, b, m, n, k) })
	forEachI8Kernel(t, func(t *testing.T) {
		simd := make([]int32, m*n)
		gemmI8Serial(simd, a, b, m, n, k)
		for i := range simd {
			if simd[i] != scalar[i] {
				t.Fatalf("dst[%d]: %v %d vs scalar %d", i, i8Level, simd[i], scalar[i])
			}
		}
	})
}

// TestRequantizeRowsSIMDBitIdenticalToScalar runs the finishing pass's table
// with the vector path forced shut as well: both must meet the definition,
// so the choice is unobservable.
func TestRequantizeRowsSIMDBitIdenticalToScalar(t *testing.T) {
	if f32Level < f32AVX {
		t.Skip("no AVX finishing pass on this CPU")
	}
	withF32Level(f32Scalar, func() { checkRequantizeRows(t) })
}
