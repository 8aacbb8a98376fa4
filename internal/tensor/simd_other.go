//go:build !amd64

package tensor

// Non-amd64 builds have no vector kernel; the blocked scalar path in
// matmul.go is used unconditionally.
const f32Level = f32Scalar

// i8Level mirrors f32Level for the int8 kernel: no vector path off amd64,
// the scalar quad kernel in gemm_i8.go runs unconditionally.
const i8Level = i8Scalar

// VBMIUsable reports false: off amd64 no byte kernel runs.
func VBMIUsable() bool { return false }

// The float32 vector kernels are never called when f32Level is f32Scalar;
// the stubs keep the float32 kernels free of build tags.
func gemmTileSIMD(t *tileArgs) {
	panic("tensor: gemmTileSIMD called without SIMD support")
}

func gemmTile8x16(t *tileArgs) {
	panic("tensor: gemmTile8x16 called without SIMD support")
}

func gemmNarrowZMM(t *narrowArgs) {
	panic("tensor: gemmNarrowZMM called without SIMD support")
}

func maxPool2AVX512(a *pool2Args) {
	panic("tensor: maxPool2AVX512 called without SIMD support")
}

func addSIMD(dst, src *float32, n int, mask *[16]int32, relu bool) {
	panic("tensor: addSIMD called without SIMD support")
}

func reluSIMD(dst, src *float32, n int, mask *[16]int32) {
	panic("tensor: reluSIMD called without SIMD support")
}

func packConvAVX(a *packArgs) {
	panic("tensor: packConvAVX called without SIMD support")
}

func packConvZMM(a *packArgs) {
	panic("tensor: packConvZMM called without SIMD support")
}

func depthwise3x3SIMD(a *dwArgs) {
	panic("tensor: depthwise3x3SIMD called without SIMD support")
}

// dot4I8SIMD, gemmI8TileVNNI, gemmI8AMX and the vector front passes are never called
// when i8Level is i8Scalar, nor requantRowsSIMD when f32Level is f32Scalar; the
// stubs keep the int8 kernels free of build tags.
func dot4I8SIMD(w0, w1, w2, w3, x *int8, k int, out *[4]int32) {
	panic("tensor: dot4I8SIMD called without SIMD support")
}

func gemmI8TileVNNI(t *i8TileArgs) {
	panic("tensor: gemmI8TileVNNI called without SIMD support")
}

func gemmI8AMX(t *i8AMXArgs) {
	panic("tensor: gemmI8AMX called without AMX support")
}

func requantRowsSIMD(a *requantArgs) {
	panic("tensor: requantRowsSIMD called without SIMD support")
}

func maxAbsSIMD(xs *float32, n int, mask *[16]int32) uint32 {
	panic("tensor: maxAbsSIMD called without SIMD support")
}

func quantI8SIMD(dst *int8, src *float32, n int, inv float32) {
	panic("tensor: quantI8SIMD called without SIMD support")
}

func quantHWCSIMD(a *quantHWCArgs) {
	panic("tensor: quantHWCSIMD called without SIMD support")
}

func im2rowI8SIMD(a *im2rowI8Args) {
	panic("tensor: im2rowI8SIMD called without SIMD support")
}
