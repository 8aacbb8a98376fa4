//go:build !amd64

package tensor

// Non-amd64 builds have no vector kernel; the blocked scalar path in
// matmul.go is used unconditionally.
const hasSIMD = false

// hasI8SIMD mirrors hasSIMD for the int8 kernel: no vector path off amd64,
// the scalar quad kernel in gemm_i8.go runs unconditionally.
const hasI8SIMD = false

// gemmTileSIMD, packPanelSIMD and packConvSIMD are never called when hasSIMD
// is false; the stubs keep the matmul kernel free of build tags.
func gemmTileSIMD(t *tileArgs) {
	panic("tensor: gemmTileSIMD called without SIMD support")
}

func packPanelSIMD(dst, src *float32, ldb, kb int, mask *[16]int32) {
	panic("tensor: packPanelSIMD called without SIMD support")
}

func packConvSIMD(a *packArgs) {
	panic("tensor: packConvSIMD called without SIMD support")
}

// dot4I8SIMD is never called when hasI8SIMD is false; the stub keeps the
// int8 GEMM kernel free of build tags.
func dot4I8SIMD(w0, w1, w2, w3, x *int8, k int, out *[4]int32) {
	panic("tensor: dot4I8SIMD called without SIMD support")
}
