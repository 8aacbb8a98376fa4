//go:build amd64

#include "textflag.h"

// func gemmTileSIMD(t *tileArgs)
//
// One 4-row x 16-column tile of a product: eight YMM accumulators (Y0..Y7,
// two per output row) sweep kb rows of the packed b panel and are stored
// once. Per p it loads the panel row (Y8, Y9), broadcasts one a value per
// output row and does vmulps then vaddps (never FMA), so every element sees
// one mul rounding and one add rounding per p in ascending p, starting from
// +0 or from the c tile of the previous k block. Tiles of at most eight live
// columns run a body that touches the left accumulators only. Loads and
// stores of c go through the tile's column mask unless all 16 are live.
// When t.mean is set, the batch-norm epilogue (and the rectifier, when
// t.relu is) is applied to the accumulators before the store.
#define TILE_ROW(arow, lo, hi) \
	VBROADCASTSS (arow)(R9*4), Y10; \
	VMULPS Y8, Y10, Y11; \
	VADDPS lo, Y11, lo; \
	VMULPS Y9, Y10, Y12; \
	VADDPS hi, Y12, hi

#define TILE_ROW8(arow, lo) \
	VBROADCASTSS (arow)(R9*4), Y10; \
	VMULPS Y8, Y10, Y11; \
	VADDPS lo, Y11, lo

// g*(v-mu)*invStd + bt on one output row, in evalInto's operation order.
#define TILE_BN(off, lo, hi) \
	VBROADCASTSS off(R10), Y8; \
	VBROADCASTSS off(R11), Y9; \
	VBROADCASTSS off(R12), Y10; \
	VBROADCASTSS off(AX), Y11; \
	VSUBPS Y8, lo, lo; \
	VSUBPS Y8, hi, hi; \
	VMULPS lo, Y9, lo; \
	VMULPS hi, Y9, hi; \
	VMULPS Y10, lo, lo; \
	VMULPS Y10, hi, hi; \
	VADDPS Y11, lo, lo; \
	VADDPS Y11, hi, hi

TEXT ·gemmTileSIMD(SB), NOSPLIT, $0-8
	MOVQ t+0(FP), DX
	MOVQ 0(DX), DI        // c
	MOVQ 8(DX), SI        // a row 0
	MOVQ 16(DX), BX       // packed b panel
	MOVQ 24(DX), R13      // ldc
	MOVQ 32(DX), R8       // lda
	MOVQ 40(DX), CX       // kb
	MOVQ 48(DX), R14      // column mask (16 int32)
	SHLQ $2, R13
	SHLQ $2, R8
	LEAQ (SI)(R8*1), R10  // a rows 1..3
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (DI)(R13*1), R8  // c rows 1..3 (lda is dead)
	LEAQ (R8)(R13*1), R15
	ADDQ R15, R13
	VMOVDQU (R14), Y14
	VMOVDQU 32(R14), Y15

	CMPQ 56(DX), $0       // accumulate: start from the c tile
	JNE  tileload
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP  tilesweep

tileload:
	VMASKMOVPS (DI), Y14, Y0
	VMASKMOVPS 32(DI), Y15, Y1
	VMASKMOVPS (R8), Y14, Y2
	VMASKMOVPS 32(R8), Y15, Y3
	VMASKMOVPS (R15), Y14, Y4
	VMASKMOVPS 32(R15), Y15, Y5
	VMASKMOVPS (R13), Y14, Y6
	VMASKMOVPS 32(R13), Y15, Y7

tilesweep:
	XORQ R9, R9
	CMPQ 64(DX), $8       // live columns
	JLE  tileloop8

tileloop16:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	TILE_ROW(SI, Y0, Y1)
	TILE_ROW(R10, Y2, Y3)
	TILE_ROW(R11, Y4, Y5)
	TILE_ROW(R12, Y6, Y7)
	ADDQ $64, BX
	INCQ R9
	CMPQ R9, CX
	JNE  tileloop16
	JMP  tileepilogue

tileloop8:
	VMOVUPS (BX), Y8
	TILE_ROW8(SI, Y0)
	TILE_ROW8(R10, Y2)
	TILE_ROW8(R11, Y4)
	TILE_ROW8(R12, Y6)
	ADDQ $64, BX
	INCQ R9
	CMPQ R9, CX
	JNE  tileloop8

tileepilogue:
	MOVQ 72(DX), R10      // mean (a rows are dead)
	TESTQ R10, R10
	JZ   tilestore
	MOVQ 80(DX), R11      // gamma
	MOVQ 88(DX), R12      // invStd
	MOVQ 96(DX), AX       // beta
	TILE_BN(0, Y0, Y1)
	TILE_BN(4, Y2, Y3)
	TILE_BN(8, Y4, Y5)
	TILE_BN(12, Y6, Y7)
	CMPB 104(DX), $0      // relu
	JE   tilestore
	// max(v, +0) with zero as the second source: NaN and -0 come out +0,
	// exactly `if v > 0 { v } else { 0 }`.
	VXORPS Y8, Y8, Y8
	VMAXPS Y8, Y0, Y0
	VMAXPS Y8, Y1, Y1
	VMAXPS Y8, Y2, Y2
	VMAXPS Y8, Y3, Y3
	VMAXPS Y8, Y4, Y4
	VMAXPS Y8, Y5, Y5
	VMAXPS Y8, Y6, Y6
	VMAXPS Y8, Y7, Y7

tilestore:
	CMPQ 64(DX), $16
	JNE  tilemasked
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (R8)
	VMOVUPS Y3, 32(R8)
	VMOVUPS Y4, (R15)
	VMOVUPS Y5, 32(R15)
	VMOVUPS Y6, (R13)
	VMOVUPS Y7, 32(R13)
	VZEROUPPER
	RET

tilemasked:
	VMASKMOVPS Y0, Y14, (DI)
	VMASKMOVPS Y1, Y15, 32(DI)
	VMASKMOVPS Y2, Y14, (R8)
	VMASKMOVPS Y3, Y15, 32(R8)
	VMASKMOVPS Y4, Y14, (R15)
	VMASKMOVPS Y5, Y15, 32(R15)
	VMASKMOVPS Y6, Y14, (R13)
	VMASKMOVPS Y7, Y15, 32(R13)
	VZEROUPPER
	RET

// func packPanelSIMD(dst, src *float32, ldb, kb int, mask *[16]int32)
//
// Copies kb rows of up to 16 live columns (row stride ldb floats) into the
// contiguous 16-wide panel gemmTileSIMD sweeps; masked-out columns read as
// zero and are never stored by the tile kernel.
TEXT ·packPanelSIMD(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ldb+16(FP), R8
	MOVQ kb+24(FP), CX
	MOVQ mask+32(FP), AX
	SHLQ $2, R8
	VMOVDQU (AX), Y14
	VMOVDQU 32(AX), Y15

packloop:
	VMASKMOVPS (SI), Y14, Y0
	VMASKMOVPS 32(SI), Y15, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ R8, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  packloop
	VZEROUPPER
	RET

// func packConvSIMD(a *packArgs)
//
// Packs kb panel rows for a convolution: row p is tap p of the window walked
// in (channel, ky, kx) order, and its live columns are a.runs contiguous runs
// of a.run floats (8, 4, 2 or 1), runStep bytes apart in the zero-bordered
// image. From one tap to the next the source moves one float, and on leaving
// a window row or a channel by rowSkip or chSkip more; the two countdowns
// (R10, R11) are the only bookkeeping. Columns past the runs are not written.
#define PACK_TAPS(tap, run, next, LOAD, reg, width) \
tap: \
	MOVQ SI, R14; \
	MOVQ DI, R15; \
	MOVQ R9, BX; \
run: \
	LOAD (R14), reg; \
	LOAD reg, (R15); \
	ADDQ R8, R14; \
	ADDQ width, R15; \
	DECQ BX; \
	JNZ  run; \
	ADDQ $64, DI; \
	ADDQ $4, SI; \
	DECQ R10; \
	JNZ  next; \
	MOVQ 72(DX), R10; \
	ADDQ R12, SI; \
	DECQ R11; \
	JNZ  next; \
	MOVQ 80(DX), R11; \
	ADDQ R13, SI; \
next: \
	DECQ CX; \
	JNZ  tap; \
	VZEROUPPER; \
	RET

TEXT ·packConvSIMD(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DX
	MOVQ 0(DX), DI        // panel
	MOVQ 8(DX), SI        // first tap's source
	MOVQ 16(DX), CX       // kb
	MOVQ 24(DX), R8       // runStep
	MOVQ 32(DX), R9       // runs
	MOVQ 40(DX), R10      // kxLeft
	MOVQ 48(DX), R11      // kyLeft
	MOVQ 56(DX), R12      // rowSkip
	MOVQ 64(DX), R13      // chSkip
	MOVQ 88(DX), AX       // run
	CMPQ AX, $8
	JEQ  pack8
	CMPQ AX, $4
	JEQ  pack4
	CMPQ AX, $2
	JEQ  pack2
	PACK_TAPS(pack1, pack1run, pack1next, MOVL, AX, $4)
	PACK_TAPS(pack2, pack2run, pack2next, MOVQ, AX, $8)
	PACK_TAPS(pack4, pack4run, pack4next, VMOVUPS, X0, $16)
	PACK_TAPS(pack8, pack8run, pack8next, VMOVUPS, Y0, $32)

// func dot4I8SIMD(w0, w1, w2, w3, x *int8, k int, out *[4]int32)
//
// Four int8 dot products sharing one streamed x row — the integer analogue
// of the float32 tile's row-quad reuse. Sixteen bytes per step are sign-extended to int16
// (VPMOVSXBW) and reduced with VPMADDWD: each int16*int16 product and the
// pairwise add are exact in int32, so unlike a vpmaddubsw kernel nothing can
// saturate, and the result is bit-identical to the scalar fallback. The
// remainder runs as a GP-register scalar loop after the YMM accumulators
// have been reduced.
TEXT ·dot4I8SIMD(SB), NOSPLIT, $0-56
	MOVQ w0+0(FP), DI
	MOVQ w1+8(FP), SI
	MOVQ w2+16(FP), DX
	MOVQ w3+24(FP), CX
	MOVQ x+32(FP), BX
	MOVQ k+40(FP), AX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ R9, R9
	MOVQ AX, R10
	SHRQ $4, R10
	JZ   i8reduce

i8loop16:
	VPMOVSXBW (BX)(R9*1), Y8
	VPMOVSXBW (DI)(R9*1), Y9
	VPMADDWD  Y8, Y9, Y9
	VPADDD    Y9, Y0, Y0
	VPMOVSXBW (SI)(R9*1), Y9
	VPMADDWD  Y8, Y9, Y9
	VPADDD    Y9, Y1, Y1
	VPMOVSXBW (DX)(R9*1), Y9
	VPMADDWD  Y8, Y9, Y9
	VPADDD    Y9, Y2, Y2
	VPMOVSXBW (CX)(R9*1), Y9
	VPMADDWD  Y8, Y9, Y9
	VPADDD    Y9, Y3, Y3
	ADDQ $16, R9
	DECQ R10
	JNZ  i8loop16

i8reduce:
	// Horizontal-sum each YMM accumulator into a GP register: fold the high
	// lane onto the low, then the 64-bit halves, then the 32-bit pair.
	VEXTRACTI128 $1, Y0, X8
	VPADDD X8, X0, X0
	VPSHUFD $0x4E, X0, X8
	VPADDD X8, X0, X0
	VPSHUFD $0xB1, X0, X8
	VPADDD X8, X0, X0
	MOVL   X0, R13
	VEXTRACTI128 $1, Y1, X8
	VPADDD X8, X1, X1
	VPSHUFD $0x4E, X1, X8
	VPADDD X8, X1, X1
	VPSHUFD $0xB1, X1, X8
	VPADDD X8, X1, X1
	MOVL   X1, R14
	VEXTRACTI128 $1, Y2, X8
	VPADDD X8, X2, X2
	VPSHUFD $0x4E, X2, X8
	VPADDD X8, X2, X2
	VPSHUFD $0xB1, X2, X8
	VPADDD X8, X2, X2
	MOVL   X2, R15
	VEXTRACTI128 $1, Y3, X8
	VPADDD X8, X3, X3
	VPSHUFD $0x4E, X3, X8
	VPADDD X8, X3, X3
	VPSHUFD $0xB1, X3, X8
	VPADDD X8, X3, X3
	MOVL   X3, R8
	VZEROUPPER

	ANDQ $15, AX
	JZ   i8store

i8tail:
	MOVBLSX (BX)(R9*1), R11
	MOVBLSX (DI)(R9*1), R12
	IMULL   R11, R12
	ADDL    R12, R13
	MOVBLSX (SI)(R9*1), R12
	IMULL   R11, R12
	ADDL    R12, R14
	MOVBLSX (DX)(R9*1), R12
	IMULL   R11, R12
	ADDL    R12, R15
	MOVBLSX (CX)(R9*1), R12
	IMULL   R11, R12
	ADDL    R12, R8
	INCQ R9
	DECQ AX
	JNZ  i8tail

i8store:
	MOVQ out+48(FP), R11
	MOVL R13, 0(R11)
	MOVL R14, 4(R11)
	MOVL R15, 8(R11)
	MOVL R8, 12(R11)
	RET

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
