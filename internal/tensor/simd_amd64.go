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

// gemmTile8x16 is gemmTileSIMD for an 8-row tile in ZMM registers, lane for
// lane the same arithmetic.
//
//go:noescape
func gemmTile8x16(t *tileArgs)

// gemmNarrowZMM computes one block of up to 32 output channels of the
// narrow product for up to narrowSpan positions (see narrowArgs and
// gemmNarrow), lane for lane the tile kernels' arithmetic.
//
//go:noescape
func gemmNarrowZMM(t *narrowArgs)

// maxPool2AVX512 runs the 2×2 max pool of a.planes planes (see pool2Args
// and MaxPool2).
//
//go:noescape
func maxPool2AVX512(a *pool2Args)

// addSIMD adds n floats of src into dst, rectifying the sums when relu is
// set; mask has -1 in its first n%8 lanes.
//
//go:noescape
func addSIMD(dst, src *float32, n int, mask *[16]int32, relu bool)

// reluSIMD writes tensor.ReLU of n floats of src to dst; mask has -1 in its
// first n%8 lanes.
//
//go:noescape
func reluSIMD(dst, src *float32, n int, mask *[16]int32)

// packConvAVX packs kb rows of the tile kernel's 16-wide b panel, one per
// window tap in (channel, ky, kx) order, each loaded straight from the
// image through the run table (see packArgs and panelSource.packConv).
//
//go:noescape
func packConvAVX(a *packArgs)

// packConvZMM is packConvAVX in ZMM registers with K-masked loads, storing
// only the live columns.
//
//go:noescape
func packConvZMM(a *packArgs)

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

// gemmI8AMX computes the int8 product of t.blocks packed channel blocks and
// t.pbs patch blocks on AMX tiles (see i8AMXArgs), bit-identical to
// dot4I8Scalar on each output.
//
//go:noescape
func gemmI8AMX(t *i8AMXArgs)

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

// f32Level is the float32 vector level this process runs: the best one
// whose CPUID gate this CPU passes. A variable only so tests can walk down
// to the levels below it.
var f32Level = detectF32Kernel()

// i8Level is the int8 micro kernel gemmI8Rows dispatches to: the best one
// whose CPUID gate this CPU passes. A variable only so tests can walk down
// to the kernels below it.
var i8Level = detectI8Kernel()

// detectF32Kernel gates the two float32 vector levels. The AVX one (the
// 4×16 tile, the panel packers, the depthwise kernel, the finishing pass of
// the int8 product, the element-wise add and rectifier) needs AVX and an OS
// that saves XMM+YMM state. The AVX-512 one (the 8×16 tile and the 2×2 max
// pool) needs, on top of that, AVX512F and the opmask and upper-register
// state (XCR0 bits 5..7) the int8 VNNI gate reads too.
func detectF32Kernel() f32Kernel {
	const (
		osxsave = 1 << 27 // CPUID.(EAX=1):ECX
		avx     = 1 << 28 // ECX
		avx512f = 1 << 16 // CPUID.(EAX=7,ECX=0):EBX
		xcr0    = 0xE6    // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
	)
	if _, _, c, _ := cpuidex(1, 0); c&osxsave == 0 || c&avx == 0 {
		return f32Scalar
	}
	eax, _ := xgetbv0()
	if eax&0x6 != 0x6 {
		return f32Scalar
	}
	if _, b, _, _ := cpuidex(7, 0); b&avx512f == 0 || eax&xcr0 != xcr0 {
		return f32AVX
	}
	return f32AVX512
}

// detectI8Kernel gates the three vector int8 kernels, and with the lower of
// them the vector front passes (maxAbsSIMD, quantI8SIMD, quantHWCSIMD,
// im2rowI8SIMD). dot4I8SIMD and those passes need AVX2 for their YMM integer
// instructions (vpmovsxbw/vpmaddwd/vpaddd; vpand/vpmaxud/vpackusdw/vpermd) on
// top of the AVX level's requirements. gemmI8TileVNNI needs, on top of that,
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
	if f32Level < f32AVX || b&avx2 == 0 {
		return i8Scalar
	}
	if b&avx512f == 0 || b&avx512bw == 0 || b&avx512vl == 0 || c&vnni == 0 {
		return i8AVX2
	}
	if eax, _ := xgetbv0(); eax&xcr0 != xcr0 {
		return i8AVX2
	}
	if !amxUsable() {
		return i8VNNI
	}
	return i8AMX
}

// VBMIUsable reports whether this CPU and OS pass the gate of a byte kernel
// built on AVX512-VBMI's byte permute (internal/httpd's number run): the
// float32 AVX-512 level's gate (AVX512F, opmask and ZMM state saved), and
// AVX2, AVX512BW, VBMI, BMI1, BMI2 and POPCNT. It reads the same CPUID
// leaves the kernels of this package are gated on.
func VBMIUsable() bool {
	const (
		popcnt   = 1 << 23 // CPUID.(EAX=1):ECX
		bmi1     = 1 << 3  // CPUID.(EAX=7,ECX=0):EBX
		avx2     = 1 << 5  // EBX
		bmi2     = 1 << 8  // EBX
		avx512bw = 1 << 30 // EBX
		vbmi     = 1 << 1  // ECX
	)
	if detectF32Kernel() != f32AVX512 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	_, b, c, _ := cpuidex(7, 0)
	const ebx = bmi1 | avx2 | bmi2 | avx512bw
	return c1&popcnt != 0 && b&ebx == ebx && c&vbmi != 0
}

// amxUsable gates gemmI8AMX, on top of the VNNI gate (its transpose and
// masked stores are AVX-512): CPUID AMX-TILE and AMX-INT8, an OS that
// manages the tile configuration and data state (XCR0 bits 17 and 18), a
// palette 1 of eight 1 KiB tiles of sixteen 64-byte rows — the shape
// amxConfig writes — and the kernel's permission for this process to use
// tile data (requestTileData), without which the first tile instruction
// faults.
func amxUsable() bool {
	const (
		amxTile = 1 << 24 // CPUID.(EAX=7,ECX=0):EDX
		amxInt8 = 1 << 25 // EDX
		xcr0    = 3 << 17 // XTILECFG, XTILEDATA
	)
	if _, _, _, d := cpuidex(7, 0); d&amxTile == 0 || d&amxInt8 == 0 {
		return false
	}
	if eax, _ := xgetbv0(); eax&xcr0 != xcr0 {
		return false
	}
	if maxLeaf, _, _, _ := cpuidex(0, 0); maxLeaf < 0x1D {
		return false
	}
	if a, b, c, _ := cpuidex(0x1D, 1); a != 1024<<16|8192 || b != 8<<16|64 || c&0xFFFF < 16 {
		return false
	}
	return requestTileData()
}
