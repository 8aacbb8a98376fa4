//go:build amd64

package tensor

// This file is the amd64 side of the SIMD dispatch for the matmul micro
// kernel. The assembly kernel (simd_amd64.s) performs the same mul-then-add
// per element as the scalar path — vmulps followed by vaddps, never a fused
// multiply-add — so the vector and scalar paths produce bit-identical
// results and the choice of path is unobservable to callers.

// gemmTileSIMD computes one 4-row tile of up to 16 columns of a product over
// one k block of the packed panel (see tileArgs), optionally continuing
// from the tile already in c and optionally finishing it with the epilogue.
//
//go:noescape
func gemmTileSIMD(t *tileArgs)

// packPanelSIMD copies kb rows of src (row stride ldb floats) into the
// contiguous 16-wide panel dst, reading only the columns live in mask and
// zero-filling the rest.
//
//go:noescape
func packPanelSIMD(dst, src *float32, ldb, kb int, mask *[16]int32)

// packConvSIMD is packPanelSIMD for a convolution source: kb panel rows, one
// per window tap in (channel, ky, kx) order, each a.runs runs of a.run floats
// copied from the zero-bordered image (see packArgs and panelSource).
//
//go:noescape
func packConvSIMD(a *packArgs)

// dot4I8SIMD computes four int8 dot products sharing one streamed patch row:
//
//	out[r] = Σ_j int32(wr[j]) * int32(x[j])  for r in 0..3, j in 0..k
//
// The AVX2 body sign-extends 16 bytes at a time (vpmovsxbw) and reduces them
// with vpmaddwd — exact pairwise int16 multiplies into int32 lanes — so the
// result is bit-identical to the scalar fallback for every input.
//
//go:noescape
func dot4I8SIMD(w0, w1, w2, w3, x *int8, k int, out *[4]int32)

//go:noescape
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// hasSIMD reports whether the AVX micro kernel is usable: the CPU must
// support AVX and the OS must have enabled XMM+YMM state saving.
var hasSIMD = detectAVX()

// hasI8SIMD reports whether the AVX2 int8 micro kernel is usable: on top of
// the hasSIMD requirements (OS-enabled YMM state), the integer instructions
// it uses (vpmovsxbw/vpmaddwd/vpaddd on YMM) need AVX2.
var hasI8SIMD = hasSIMD && detectAVX2()

func detectAVX() bool {
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, c, _ := cpuidex(1, 0)
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	eax, _ := xgetbv0()
	return eax&0x6 == 0x6
}

func detectAVX2() bool {
	const avx2 = 1 << 5 // CPUID.(EAX=7,ECX=0):EBX bit 5
	_, b, _, _ := cpuidex(7, 0)
	return b&avx2 != 0
}
