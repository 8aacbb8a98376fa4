//go:build amd64

package tensor

import (
	"math/rand"
	"testing"
)

// TestDot4I8SIMDBitIdenticalToScalar drives the assembly micro kernel
// directly against the scalar quad kernel across every 16-byte-body/tail
// split, including adversarial all-extreme rows. Integer accumulation means
// "close" is not an option: every output must be bit-identical.
func TestDot4I8SIMDBitIdenticalToScalar(t *testing.T) {
	if !hasI8SIMD {
		t.Skip("no AVX2 int8 kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(11))
	for k := 1; k <= 70; k++ {
		rows := make([][]int8, 4)
		for r := range rows {
			rows[r] = randI8(rng, k)
		}
		x := randI8(rng, k)
		if k%3 == 0 { // saturation-prone corner a maddubs kernel would break on
			for j := range x {
				x[j] = 127
				rows[0][j] = -127
			}
		}
		var want, got [4]int32
		dot4I8Scalar(rows[0], rows[1], rows[2], rows[3], x, &want)
		dot4I8SIMD(&rows[0][0], &rows[1][0], &rows[2][0], &rows[3][0], &x[0], k, &got)
		if got != want {
			t.Fatalf("k=%d: SIMD %v vs scalar %v", k, got, want)
		}
	}
}

// TestGemmI8SIMDBitIdenticalToScalarFallback runs the whole blocked kernel
// with the vector path enabled and disabled and requires bit-identical
// output — the dispatch choice must be unobservable.
func TestGemmI8SIMDBitIdenticalToScalarFallback(t *testing.T) {
	if !hasI8SIMD {
		t.Skip("no AVX2 int8 kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(12))
	m, n, k := 33, 29, 83
	a, b := randI8(rng, m*k), randI8(rng, n*k)
	simd := make([]int32, m*n)
	GemmI8Serial(simd, a, b, m, n, k)
	defer func(v bool) { hasI8SIMD = v }(hasI8SIMD)
	hasI8SIMD = false
	scalar := make([]int32, m*n)
	GemmI8Serial(scalar, a, b, m, n, k)
	for i := range simd {
		if simd[i] != scalar[i] {
			t.Fatalf("dst[%d]: SIMD %d vs scalar %d", i, simd[i], scalar[i])
		}
	}
}

// forEachI8Kernel runs fn once per int8 micro kernel this CPU can execute:
// with the AVX2 gate open (when the CPU passes it) and with it forced shut.
func forEachI8Kernel(fn func(simd bool)) {
	defer func(v bool) { hasI8SIMD = v }(hasI8SIMD)
	if hasI8SIMD {
		fn(true)
	}
	hasI8SIMD = false
	fn(false)
}
