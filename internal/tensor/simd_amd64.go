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
//	out[r] = Σ_j int32(wr[j]) * int32(x[j])  for r in 0..3, j in 0..k, k ≥ 16
//
// The AVX2 body sign-extends 16 bytes at a time (vpmovsxbw) and reduces them
// with vpmaddwd — exact pairwise int16 multiplies into int32 lanes — so the
// result is bit-identical to the scalar fallback for every input.
//
//go:noescape
func dot4I8SIMD(w0, w1, w2, w3, x *int8, k int, out *[4]int32)

// gemmI8TileVNNI computes four output rows of the int8 product against
// t.rows patch rows (see i8TileArgs), bit-identical to dot4I8Scalar on each.
//
//go:noescape
func gemmI8TileVNNI(t *i8TileArgs)

// requantRowsSIMD finishes the rows of a quantized product (see requantArgs).
//
//go:noescape
func requantRowsSIMD(a *requantArgs)

// maxAbsSIMD returns the largest of the n magnitude bit patterns at xs (see
// MaxAbs), n at least 1; mask has -1 in its first n%8 lanes.
//
//go:noescape
func maxAbsSIMD(xs *float32, n int, mask *[16]int32) uint32

// quantI8SIMD is quantI8 over n contiguous values, n a positive multiple of 8.
//
//go:noescape
func quantI8SIMD(dst *int8, src *float32, n int, inv float32)

// quantHWCSIMD quantizes one CHW image into the interior of its HWC plane
// (see quantHWCArgs and QuantizeI8HWC).
//
//go:noescape
func quantHWCSIMD(a *quantHWCArgs)

// im2rowI8SIMD copies the patch rows of one plane (see im2rowI8Args).
//
//go:noescape
func im2rowI8SIMD(a *im2rowI8Args)

// depthwise3x3SIMD runs channels [a.ch, a.end) of a 3×3 depthwise
// convolution at stride 1 or 2, each through the zero-bordered plane (see
// dwArgs and DepthwiseFused).
//
//go:noescape
func depthwise3x3SIMD(a *dwArgs)

//go:noescape
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// hasSIMD reports whether the AVX micro kernel is usable: the CPU must
// support AVX and the OS must have enabled XMM+YMM state saving.
var hasSIMD = detectAVX()

// i8Level is the int8 micro kernel gemmI8Rows dispatches to: the best one
// whose CPUID gate this CPU passes. A variable only so tests can walk down
// to the kernels below it.
var i8Level = detectI8Kernel()

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

// detectI8Kernel gates the two vector int8 kernels, and with the lower of
// them the vector front passes (maxAbsSIMD, quantI8SIMD, quantHWCSIMD,
// im2rowI8SIMD). dot4I8SIMD and those passes need AVX2 for their YMM integer
// instructions (vpmovsxbw/vpmaddwd/vpaddd; vpand/vpmaxud/vpackusdw/vpermd) on
// top of the hasSIMD requirements. gemmI8TileVNNI needs, on top of that,
// AVX512F, BW (byte-masked loads, kmovd), VL (EVEX forms on YMM, Y16..Y31)
// and VNNI (vpdpbusd), and an OS that saves the opmask and upper-register
// state (XCR0 bits 5..7) — ZMM itself is never touched, but Y16..Y31 live in
// it.
func detectI8Kernel() i8Kernel {
	const (
		avx2     = 1 << 5  // CPUID.(EAX=7,ECX=0):EBX
		avx512f  = 1 << 16 // EBX
		avx512bw = 1 << 30 // EBX
		avx512vl = 1 << 31 // EBX
		vnni     = 1 << 11 // ECX
		xcr0     = 0xE6    // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
	)
	_, b, c, _ := cpuidex(7, 0)
	if !hasSIMD || b&avx2 == 0 {
		return i8Scalar
	}
	if b&avx512f == 0 || b&avx512bw == 0 || b&avx512vl == 0 || c&vnni == 0 {
		return i8AVX2
	}
	if eax, _ := xgetbv0(); eax&xcr0 != xcr0 {
		return i8AVX2
	}
	return i8VNNI
}
