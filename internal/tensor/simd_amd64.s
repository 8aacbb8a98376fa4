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

// func gemmTile8x16(t *tileArgs)
//
// gemmTileSIMD eight rows tall at twice the width of a register: eight ZMM
// accumulators (Z0..Z7, one per output row) sweep the same 16-wide panel,
// so each panel row (Z8) feeds 128 multiply-adds. Per p and row it
// broadcasts the a value into its own temporary (Z16..Z23) and does VMULPS
// then VADDPS with the operands in gemmTileSIMD's order — never a fused
// multiply-add — so every lane is bit for bit that kernel's element. Loads
// and stores of c go through opmask K1, the tile's live columns. A tile of
// at most eight live columns sweeps in YMM (TILE_ROW8 into the low halves
// of Z0..Z7): a 256-bit multiply or add issues on more ports than a 512-bit
// one, and the upper lanes would be dead. The epilogue is TILE_BN one row
// at a time, then VMAXPS against +0.
#define TILE_ROWZ(arow, acc, tmp) \
	VBROADCASTSS (arow)(R9*4), tmp; \
	VMULPS Z8, tmp, tmp; \
	VADDPS acc, tmp, acc

#define TILE_BNZ(off, acc) \
	VBROADCASTSS off(R10), Z8; \
	VBROADCASTSS off(R11), Z9; \
	VBROADCASTSS off(R12), Z10; \
	VBROADCASTSS off(R13), Z11; \
	VSUBPS Z8, acc, acc; \
	VMULPS acc, Z9, acc; \
	VMULPS Z10, acc, acc; \
	VADDPS Z11, acc, acc

TEXT ·gemmTile8x16(SB), NOSPLIT, $0-8
	MOVQ t+0(FP), DX
	MOVQ 64(DX), CX       // live columns
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	MOVQ 8(DX), SI        // a row 0
	MOVQ 32(DX), R8       // lda
	SHLQ $2, R8
	LEAQ (SI)(R8*1), R10  // a rows 1..7
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	LEAQ (R13)(R8*1), R14
	LEAQ (R14)(R8*1), R15
	LEAQ (R15)(R8*1), AX
	MOVQ 0(DX), DI        // c
	MOVQ 24(DX), R8       // ldc (lda is dead)
	SHLQ $2, R8

	CMPQ 56(DX), $0       // accumulate: start from the c tile
	JNE  tile8load
	VXORPS Y0, Y0, Y0     // a VEX write clears the whole ZMM
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP  tile8sweep

tile8load:
	MOVQ DI, BX
	VMOVUPS.Z (BX), K1, Z0
	ADDQ R8, BX
	VMOVUPS.Z (BX), K1, Z1
	ADDQ R8, BX
	VMOVUPS.Z (BX), K1, Z2
	ADDQ R8, BX
	VMOVUPS.Z (BX), K1, Z3
	ADDQ R8, BX
	VMOVUPS.Z (BX), K1, Z4
	ADDQ R8, BX
	VMOVUPS.Z (BX), K1, Z5
	ADDQ R8, BX
	VMOVUPS.Z (BX), K1, Z6
	ADDQ R8, BX
	VMOVUPS.Z (BX), K1, Z7

tile8sweep:
	MOVQ 16(DX), BX       // packed b panel
	MOVQ 40(DX), CX       // kb
	XORQ R9, R9
	CMPQ 64(DX), $8       // live columns
	JLE  tile8narrow

tile8loop:
	VMOVUPS (BX), Z8
	TILE_ROWZ(SI, Z0, Z16)
	TILE_ROWZ(R10, Z1, Z17)
	TILE_ROWZ(R11, Z2, Z18)
	TILE_ROWZ(R12, Z3, Z19)
	TILE_ROWZ(R13, Z4, Z20)
	TILE_ROWZ(R14, Z5, Z21)
	TILE_ROWZ(R15, Z6, Z22)
	TILE_ROWZ(AX, Z7, Z23)
	ADDQ $64, BX
	INCQ R9
	CMPQ R9, CX
	JNE  tile8loop
	JMP  tile8epilogue

tile8narrow:
	VMOVUPS (BX), Y8
	TILE_ROW8(SI, Y0)
	TILE_ROW8(R10, Y1)
	TILE_ROW8(R11, Y2)
	TILE_ROW8(R12, Y3)
	TILE_ROW8(R13, Y4)
	TILE_ROW8(R14, Y5)
	TILE_ROW8(R15, Y6)
	TILE_ROW8(AX, Y7)
	ADDQ $64, BX
	INCQ R9
	CMPQ R9, CX
	JNE  tile8narrow

tile8epilogue:
	MOVQ 72(DX), R10      // mean (a rows are dead)
	TESTQ R10, R10
	JZ   tile8store
	MOVQ 80(DX), R11      // gamma
	MOVQ 88(DX), R12      // invStd
	MOVQ 96(DX), R13      // beta
	TILE_BNZ(0, Z0)
	TILE_BNZ(4, Z1)
	TILE_BNZ(8, Z2)
	TILE_BNZ(12, Z3)
	TILE_BNZ(16, Z4)
	TILE_BNZ(20, Z5)
	TILE_BNZ(24, Z6)
	TILE_BNZ(28, Z7)
	CMPB 104(DX), $0      // relu
	JE   tile8store
	VXORPS Y8, Y8, Y8
	VMAXPS Z8, Z0, Z0
	VMAXPS Z8, Z1, Z1
	VMAXPS Z8, Z2, Z2
	VMAXPS Z8, Z3, Z3
	VMAXPS Z8, Z4, Z4
	VMAXPS Z8, Z5, Z5
	VMAXPS Z8, Z6, Z6
	VMAXPS Z8, Z7, Z7

tile8store:
	VMOVUPS Z0, K1, (DI)
	ADDQ R8, DI
	VMOVUPS Z1, K1, (DI)
	ADDQ R8, DI
	VMOVUPS Z2, K1, (DI)
	ADDQ R8, DI
	VMOVUPS Z3, K1, (DI)
	ADDQ R8, DI
	VMOVUPS Z4, K1, (DI)
	ADDQ R8, DI
	VMOVUPS Z5, K1, (DI)
	ADDQ R8, DI
	VMOVUPS Z6, K1, (DI)
	ADDQ R8, DI
	VMOVUPS Z7, K1, (DI)
	VZEROUPPER
	RET

// func gemmNarrowZMM(t *narrowArgs)
//
// The narrow product (narrow.go): up to 32 output channels on the lanes of
// two ZMM registers by up to eight output positions, a pair of accumulators
// each (Z0..Z15), held over the whole k and stored once. Per p the channel
// block's two weight rows are loaded (Z16, Z17), each position's b value is
// broadcast (Z18), and every lane does VMULPS then VADDPS with the operands
// in gemmTile8x16's order — the weight first, then the product first —
// never a fused multiply-add, from +0, so each output is bit for bit the
// tile kernel's element. One loop per position count keeps the sweep free
// of bookkeeping. The epilogue is TILE_BNZ per lane, each lane with its own
// channel's values, applied to all sixteen accumulators (the unused ones
// are never stored). A position's outputs are a column of the [m, n]
// destination, n floats apart, so each half is stored by VSCATTERDPS
// through the live-channel masks, K1 for channels 0..15 and K2 for 16..31.
#define NARROW_HEAD(label) \
label: \
	VMOVUPS (SI), Z16; \
	VMOVUPS 64(SI), Z17

#define NARROW_POS(off, lo, hi) \
	VBROADCASTSS off(BX), Z18; \
	VMULPS Z18, Z16, Z19; \
	VADDPS lo, Z19, lo; \
	VMULPS Z18, Z17, Z20; \
	VADDPS hi, Z20, hi

#define NARROW_TAIL(label) \
	ADDQ $128, SI; \
	ADDQ R8, BX; \
	DECQ CX; \
	JNZ  label; \
	JMP  narrowepilogue

#define NARROW_BN(lo, hi) \
	VSUBPS Z16, lo, lo; \
	VSUBPS Z17, hi, hi; \
	VMULPS lo, Z18, lo; \
	VMULPS hi, Z19, hi; \
	VMULPS Z20, lo, lo; \
	VMULPS Z21, hi, hi; \
	VADDPS Z22, lo, lo; \
	VADDPS Z23, hi, hi

#define NARROW_RELU(lo, hi) \
	VMAXPS Z26, lo, lo; \
	VMAXPS Z26, hi, hi

// A scatter clears its mask as it stores, so each one gets a copy (K3).
#define NARROW_STORE(off, lo, hi) \
	KMOVW K1, K3; \
	VSCATTERDPS lo, K3, off(DI)(Z24*4); \
	KMOVW K2, K3; \
	VSCATTERDPS hi, K3, off(R9)(Z24*4); \
	DECQ AX; \
	JZ   narrowdone

DATA narrowiota<>+0(SB)/8, $0x0000000100000000
DATA narrowiota<>+8(SB)/8, $0x0000000300000002
DATA narrowiota<>+16(SB)/8, $0x0000000500000004
DATA narrowiota<>+24(SB)/8, $0x0000000700000006
DATA narrowiota<>+32(SB)/8, $0x0000000900000008
DATA narrowiota<>+40(SB)/8, $0x0000000b0000000a
DATA narrowiota<>+48(SB)/8, $0x0000000d0000000c
DATA narrowiota<>+56(SB)/8, $0x0000000f0000000e
GLOBL narrowiota<>(SB), RODATA|NOPTR, $64

TEXT ·gemmNarrowZMM(SB), NOSPLIT, $0-8
	MOVQ t+0(FP), DX
	MOVQ 56(DX), CX       // live channels
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX               // one bit per live channel
	KMOVW AX, K1
	SHRQ $16, AX
	KMOVW AX, K2
	MOVQ 8(DX), SI        // packed weights
	MOVQ 16(DX), BX       // b
	MOVQ 24(DX), R8       // ldb
	MOVQ 32(DX), CX       // k
	VXORPS Y0, Y0, Y0     // a VEX write clears the whole ZMM
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	MOVQ 48(DX), AX       // positions
	CMPQ AX, $4
	JEQ  narrow4
	CMPQ AX, $2
	JEQ  narrow2
	CMPQ AX, $1
	JEQ  narrow1
	CMPQ AX, $3
	JEQ  narrow3
	CMPQ AX, $5
	JEQ  narrow5
	CMPQ AX, $6
	JEQ  narrow6
	CMPQ AX, $7
	JEQ  narrow7
	JMP  narrow8

	NARROW_HEAD(narrow1)
	NARROW_POS(0, Z0, Z1)
	NARROW_TAIL(narrow1)

	NARROW_HEAD(narrow2)
	NARROW_POS(0, Z0, Z1)
	NARROW_POS(4, Z2, Z3)
	NARROW_TAIL(narrow2)

	NARROW_HEAD(narrow3)
	NARROW_POS(0, Z0, Z1)
	NARROW_POS(4, Z2, Z3)
	NARROW_POS(8, Z4, Z5)
	NARROW_TAIL(narrow3)

	NARROW_HEAD(narrow4)
	NARROW_POS(0, Z0, Z1)
	NARROW_POS(4, Z2, Z3)
	NARROW_POS(8, Z4, Z5)
	NARROW_POS(12, Z6, Z7)
	NARROW_TAIL(narrow4)

	NARROW_HEAD(narrow5)
	NARROW_POS(0, Z0, Z1)
	NARROW_POS(4, Z2, Z3)
	NARROW_POS(8, Z4, Z5)
	NARROW_POS(12, Z6, Z7)
	NARROW_POS(16, Z8, Z9)
	NARROW_TAIL(narrow5)

	NARROW_HEAD(narrow6)
	NARROW_POS(0, Z0, Z1)
	NARROW_POS(4, Z2, Z3)
	NARROW_POS(8, Z4, Z5)
	NARROW_POS(12, Z6, Z7)
	NARROW_POS(16, Z8, Z9)
	NARROW_POS(20, Z10, Z11)
	NARROW_TAIL(narrow6)

	NARROW_HEAD(narrow7)
	NARROW_POS(0, Z0, Z1)
	NARROW_POS(4, Z2, Z3)
	NARROW_POS(8, Z4, Z5)
	NARROW_POS(12, Z6, Z7)
	NARROW_POS(16, Z8, Z9)
	NARROW_POS(20, Z10, Z11)
	NARROW_POS(24, Z12, Z13)
	NARROW_TAIL(narrow7)

	NARROW_HEAD(narrow8)
	NARROW_POS(0, Z0, Z1)
	NARROW_POS(4, Z2, Z3)
	NARROW_POS(8, Z4, Z5)
	NARROW_POS(12, Z6, Z7)
	NARROW_POS(16, Z8, Z9)
	NARROW_POS(20, Z10, Z11)
	NARROW_POS(24, Z12, Z13)
	NARROW_POS(28, Z14, Z15)
	NARROW_TAIL(narrow8)

narrowepilogue:
	MOVQ 64(DX), R10      // mean
	TESTQ R10, R10
	JZ   narrowstore
	MOVQ 72(DX), R11      // gamma
	MOVQ 80(DX), R12      // invStd
	MOVQ 88(DX), R13      // beta
	VMOVUPS.Z (R10), K1, Z16
	VMOVUPS.Z 64(R10), K2, Z17
	VMOVUPS.Z (R11), K1, Z18
	VMOVUPS.Z 64(R11), K2, Z19
	VMOVUPS.Z (R12), K1, Z20
	VMOVUPS.Z 64(R12), K2, Z21
	VMOVUPS.Z (R13), K1, Z22
	VMOVUPS.Z 64(R13), K2, Z23
	NARROW_BN(Z0, Z1)
	NARROW_BN(Z2, Z3)
	NARROW_BN(Z4, Z5)
	NARROW_BN(Z6, Z7)
	NARROW_BN(Z8, Z9)
	NARROW_BN(Z10, Z11)
	NARROW_BN(Z12, Z13)
	NARROW_BN(Z14, Z15)
	CMPB 96(DX), $0       // relu
	JE   narrowstore
	VPXORD Z26, Z26, Z26
	NARROW_RELU(Z0, Z1)
	NARROW_RELU(Z2, Z3)
	NARROW_RELU(Z4, Z5)
	NARROW_RELU(Z6, Z7)
	NARROW_RELU(Z8, Z9)
	NARROW_RELU(Z10, Z11)
	NARROW_RELU(Z12, Z13)
	NARROW_RELU(Z14, Z15)

narrowstore:
	MOVQ 0(DX), DI        // c: channel 0 of the first position
	MOVQ 40(DX), R9       // n
	VPBROADCASTD R9, Z25
	VPMULLD narrowiota<>(SB), Z25, Z24 // channel i's output, i·n floats on
	SHLQ $6, R9
	ADDQ DI, R9           // channel 16, sixteen rows of n floats on
	MOVQ 48(DX), AX       // positions
	NARROW_STORE(0, Z0, Z1)
	NARROW_STORE(4, Z2, Z3)
	NARROW_STORE(8, Z4, Z5)
	NARROW_STORE(12, Z6, Z7)
	NARROW_STORE(16, Z8, Z9)
	NARROW_STORE(20, Z10, Z11)
	NARROW_STORE(24, Z12, Z13)
	NARROW_STORE(28, Z14, Z15)

narrowdone:
	VZEROUPPER
	RET

// Moves packConvAVX/packConvZMM on to the next window tap (see packArgs):
// its runs (AX) follow the last tap's, its first row (DI) is the next; past
// the window's last tap the runs start over at the tile's first and the
// channel (SI) moves on by one. R8 counts the taps down.
#define PACK_NEXT_TAP(same, loop) \
	LEAQ (AX)(R9*8), AX; \
	ADDQ 56(DX), DI; \
	CMPQ AX, 32(DX); \
	JCS  same; \
	MOVQ 16(DX), AX; \
	ADDQ R11, SI; \
same: \
	DECQ R8; \
	JNZ  loop

// func packConvAVX(a *packArgs)
//
// Packs kb panel rows for a convolution straight from the unpadded image,
// tap by tap: a tap's row in each channel is the OR of its a.perTap runs
// (see convRun), each a pair of zero-masked loads (VMASKMOVPS) through its
// lane bits expanded a byte at a time (laneMasks), so a lane outside the
// image reads +0 and touches no memory. All 16 lanes are stored.
TEXT ·packConvAVX(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DX
	MOVQ 0(DX), DI        // the tap's first row
	MOVQ 8(DX), SI        // its channel
	MOVQ 24(DX), AX       // its runs
	MOVQ 40(DX), R9       // runs per tap
	MOVQ 48(DX), R11      // channel bytes
	MOVQ 72(DX), R8       // taps
	MOVQ 96(DX), R15      // laneMasks

avxtap:
	MOVQ SI, R13          // the row's channel
	MOVQ DI, CX           // the row

avxrow:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ AX, BX
	MOVQ R9, R10

avxrun:
	MOVLQSX 0(BX), R14    // off
	MOVBQZX 4(BX), R12    // lanes 0..7
	SHLQ $5, R12
	VMOVDQU (R15)(R12*1), Y2
	MOVBQZX 5(BX), R12    // lanes 8..15
	SHLQ $5, R12
	VMOVDQU (R15)(R12*1), Y3
	VMASKMOVPS (R13)(R14*4), Y2, Y4
	VMASKMOVPS 32(R13)(R14*4), Y3, Y5
	VORPS Y4, Y0, Y0
	VORPS Y5, Y1, Y1
	ADDQ $8, BX
	DECQ R10
	JNZ  avxrun
	VMOVUPS Y0, (CX)
	VMOVUPS Y1, 32(CX)
	ADDQ R11, R13
	ADDQ 64(DX), CX
	CMPQ CX, 80(DX)
	JCS  avxrow
	PACK_NEXT_TAP(avxsame, avxtap)
	VZEROUPPER
	RET

// func packConvZMM(a *packArgs)
//
// packConvAVX in ZMM registers: a run is one zero-masked load through K1,
// the entry's lane bits (later runs ORed into the first, not merged, so the
// loads do not wait for one another), and a row is stored through K2, the
// live columns, so rows may sit closer than 16 floats apart. A tap of one
// run — every tap of a "same" convolution — loads its offset and mask once
// for all its channels.
TEXT ·packConvZMM(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DX
	MOVQ 0(DX), DI        // the tap's first row
	MOVQ 8(DX), SI        // its channel
	MOVQ 24(DX), AX       // its runs
	MOVQ 40(DX), R9       // runs per tap
	MOVQ 48(DX), R11      // channel bytes
	MOVQ 64(DX), R13      // row step
	MOVQ 72(DX), R8       // taps
	MOVQ 80(DX), R15      // row kb
	KMOVW 88(DX), K2      // live columns

zmmtap:
	MOVQ DI, CX           // the row
	CMPQ R9, $1
	JNE  zmmmulti
	MOVLQSX 0(AX), BX
	KMOVW 4(AX), K1
	LEAQ (SI)(BX*4), BX   // lane 0's source in the row's channel

zmmone:
	VMOVUPS.Z (BX), K1, Z0
	VMOVUPS Z0, K2, (CX)
	ADDQ R11, BX
	ADDQ R13, CX
	CMPQ CX, R15
	JCS  zmmone
	JMP  zmmnext

zmmmulti:
	MOVQ SI, BX           // the row's channel

zmmrow:
	MOVQ AX, R12
	MOVQ R9, R10
	MOVLQSX 0(R12), R14
	KMOVW 4(R12), K1
	VMOVUPS.Z (BX)(R14*4), K1, Z0

zmmrun:
	ADDQ $8, R12
	DECQ R10
	JZ   zmmstore
	MOVLQSX 0(R12), R14
	KMOVW 4(R12), K1
	VMOVUPS.Z (BX)(R14*4), K1, Z1
	VPORD Z1, Z0, Z0
	JMP  zmmrun

zmmstore:
	VMOVUPS Z0, K2, (CX)
	ADDQ R11, BX
	ADDQ R13, CX
	CMPQ CX, R15
	JCS  zmmrow

zmmnext:
	PACK_NEXT_TAP(zmmsame, zmmtap)
	VZEROUPPER
	RET

// Sums four YMM accumulators of dwords across their lanes into the four
// dwords of x0, the first one's low half, in argument order (VEX forms:
// Y0..Y15 only).
#define I8_HSUM4(a0, a1, a2, a3, x0, x1) \
	VPHADDD a1, a0, a0; \
	VPHADDD a3, a2, a2; \
	VPHADDD a2, a0, a0; \
	VEXTRACTI128 $1, a0, x1; \
	VPADDD x1, x0, x0

// func dot4I8SIMD(w0, w1, w2, w3, x *int8, k int, out *[4]int32)
//
// Four int8 dot products sharing one streamed x row — the integer analogue
// of the float32 tile's row-quad reuse. Sixteen bytes per step are sign-extended to int16
// (VPMOVSXBW) and reduced with VPMADDWD: each int16*int16 product and the
// pairwise add are exact in int32, so unlike a vpmaddubsw kernel nothing can
// saturate, and the result is bit-identical to the scalar fallback. The last
// k%16 bytes are one more step over the row's final sixteen, with the bytes
// of x the body already consumed masked to zero; a row shorter than sixteen
// has no such load, so k must be at least 16 (gemmI8Rows sends shorter rows
// to the scalar kernel).
DATA i8tailmask<>+0(SB)/8, $0
DATA i8tailmask<>+8(SB)/8, $0
DATA i8tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA i8tailmask<>+24(SB)/8, $0xffffffffffffffff
GLOBL i8tailmask<>(SB), RODATA|NOPTR, $32

#define DOT4_STEP \
	VPMOVSXBW (DI)(R9*1), Y9; \
	VPMADDWD  Y8, Y9, Y9; \
	VPADDD    Y9, Y0, Y0; \
	VPMOVSXBW (SI)(R9*1), Y9; \
	VPMADDWD  Y8, Y9, Y9; \
	VPADDD    Y9, Y1, Y1; \
	VPMOVSXBW (DX)(R9*1), Y9; \
	VPMADDWD  Y8, Y9, Y9; \
	VPADDD    Y9, Y2, Y2; \
	VPMOVSXBW (CX)(R9*1), Y9; \
	VPMADDWD  Y8, Y9, Y9; \
	VPADDD    Y9, Y3, Y3

TEXT ·dot4I8SIMD(SB), NOSPLIT, $0-56
	MOVQ w0+0(FP), DI
	MOVQ w1+8(FP), SI
	MOVQ w2+16(FP), DX
	MOVQ w3+24(FP), CX
	MOVQ x+32(FP), BX
	MOVQ k+40(FP), AX
	MOVQ out+48(FP), R11
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ R9, R9
	MOVQ AX, R10
	SHRQ $4, R10

i8loop16:
	VPMOVSXBW (BX)(R9*1), Y8
	DOT4_STEP
	ADDQ $16, R9
	DECQ R10
	JNZ  i8loop16

	ANDQ $15, AX
	JZ   i8reduce
	// Bytes [k-16, k): the first 16-(k%16) were consumed above and are
	// masked out of x, so they add nothing on any row.
	LEAQ i8tailmask<>(SB), R10
	VMOVDQU (R10)(AX*1), X10
	LEAQ -16(R9)(AX*1), R9
	VPAND (BX)(R9*1), X10, X10
	VPMOVSXBW X10, Y8
	DOT4_STEP

i8reduce:
	I8_HSUM4(Y0, Y1, Y2, Y3, X0, X8)
	VMOVDQU X0, (R11)
	VZEROUPPER
	RET

// func gemmI8TileVNNI(t *i8TileArgs)
//
// Four weight rows against t.rows patch rows, four patch rows at a time: a
// 4x4 tile of dot products in sixteen YMM accumulators (Y0..Y15, row-major:
// Y(4r+j) is weight row r times patch row j), 32 bytes of k per step, the
// operands in Y16..Y23. VPDPBUSD multiplies unsigned bytes by signed ones,
// so each patch byte is flipped to x+128 as it is loaded (x XOR 0x80) and
// every result is corrected by 128 times its weight row's sum, which the
// kernel forms first with four VPDPBUSD against all-ones per step:
//
//	sum_p w_p*(x_p+128) - 128*sum_p w_p = sum_p w_p*x_p
//
// 255*(-128) fits the signed word VPDPBUSD forms each product in and its
// adds wrap (it is the non-saturating form), so both sides of the identity
// hold modulo 2^32 for every int8 value, as the other two kernels' sums do.
// The k%32 tail is one more step whose loads are zeroed past k by opmask K1:
// a zero weight byte cancels whatever the flipped patch byte is. A VPHADDD
// tree (VEX only, hence the accumulators in Y0..Y15) leaves each weight
// row's four results adjacent, so a tile stores sixteen bytes per row; the
// last rows%4 patch rows run the same body one patch row wide.
#define I8_LOADW(off) \
	VMOVDQU32 (SI)(off*1), Y16; \
	VMOVDQU32 (R10)(off*1), Y17; \
	VMOVDQU32 (R11)(off*1), Y18; \
	VMOVDQU32 (R12)(off*1), Y19

#define I8_LOADW_TAIL(off) \
	VMOVDQU8.Z (SI)(off*1), K1, Y16; \
	VMOVDQU8.Z (R10)(off*1), K1, Y17; \
	VMOVDQU8.Z (R11)(off*1), K1, Y18; \
	VMOVDQU8.Z (R12)(off*1), K1, Y19

#define I8_DP4(x, a0, a1, a2, a3) \
	VPDPBUSD Y16, x, a0; \
	VPDPBUSD Y17, x, a1; \
	VPDPBUSD Y18, x, a2; \
	VPDPBUSD Y19, x, a3

#define I8_DP16 \
	I8_DP4(Y20, Y0, Y4, Y8, Y12); \
	I8_DP4(Y21, Y1, Y5, Y9, Y13); \
	I8_DP4(Y22, Y2, Y6, Y10, Y14); \
	I8_DP4(Y23, Y3, Y7, Y11, Y15)

TEXT ·gemmI8TileVNNI(SB), NOSPLIT, $0-8
	MOVQ t+0(FP), DX
	MOVQ 0(DX), DI        // dst
	MOVQ 8(DX), SI        // weight row 0
	MOVQ 16(DX), BX       // patch row 0
	MOVQ 24(DX), R13      // ldc
	MOVQ 32(DX), AX       // lda
	MOVQ 40(DX), CX       // k
	MOVQ 48(DX), R8       // patch rows left
	SHLQ $2, R13          // dst row stride in bytes
	LEAQ (SI)(AX*1), R10  // weight rows 1..3
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	MOVL $0x80808080, AX
	VPBROADCASTD AX, Y31  // the sign flip
	MOVL $0x01010101, AX
	VPBROADCASTD AX, Y30  // the row-sum multiplier
	MOVL $1, AX
	SHLL CX, AX           // CL masks the count to k%32 by itself
	DECL AX
	KMOVD AX, K1          // the first k%32 bytes
	MOVQ CX, R14
	ANDQ $-32, R14        // bytes the full steps cover

	// 128 times each weight row's sum: X28 holds the four, X24..X27 one each.
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ R9, R9
	TESTQ R14, R14
	JZ   i8sumtail
i8sumloop:
	VPDPBUSD (SI)(R9*1), Y30, Y0
	VPDPBUSD (R10)(R9*1), Y30, Y1
	VPDPBUSD (R11)(R9*1), Y30, Y2
	VPDPBUSD (R12)(R9*1), Y30, Y3
	ADDQ $32, R9
	CMPQ R9, R14
	JLT  i8sumloop
i8sumtail:
	TESTQ $31, CX
	JZ   i8sumdone
	I8_LOADW_TAIL(R9)
	VPDPBUSD Y16, Y30, Y0
	VPDPBUSD Y17, Y30, Y1
	VPDPBUSD Y18, Y30, Y2
	VPDPBUSD Y19, Y30, Y3
i8sumdone:
	I8_HSUM4(Y0, Y1, Y2, Y3, X0, X1)
	VPSLLD $7, X0, X0
	VMOVDQA32 X0, X28
	VPSHUFD $0x00, X0, X24
	VPSHUFD $0x55, X0, X25
	VPSHUFD $0xAA, X0, X26
	VPSHUFD $0xFF, X0, X27

	LEAQ (BX)(CX*1), R15  // patch rows 1..3 of the tile
	LEAQ (R15)(CX*1), AX
	LEAQ (AX)(CX*1), DX

i8tile4:
	CMPQ R8, $4
	JLT  i8tile1
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15
	XORQ R9, R9
	TESTQ R14, R14
	JZ   i8tile4tail
i8tile4loop:
	I8_LOADW(R9)
	VPXORD (BX)(R9*1), Y31, Y20
	VPXORD (R15)(R9*1), Y31, Y21
	VPXORD (AX)(R9*1), Y31, Y22
	VPXORD (DX)(R9*1), Y31, Y23
	I8_DP16
	ADDQ $32, R9
	CMPQ R9, R14
	JLT  i8tile4loop
i8tile4tail:
	TESTQ $31, CX
	JZ   i8tile4store
	I8_LOADW_TAIL(R9)
	VMOVDQU8.Z (BX)(R9*1), K1, Y20
	VMOVDQU8.Z (R15)(R9*1), K1, Y21
	VMOVDQU8.Z (AX)(R9*1), K1, Y22
	VMOVDQU8.Z (DX)(R9*1), K1, Y23
	VPXORD Y31, Y20, Y20
	VPXORD Y31, Y21, Y21
	VPXORD Y31, Y22, Y22
	VPXORD Y31, Y23, Y23
	I8_DP16
i8tile4store:
	LEAQ (R13)(R13*2), R9
	I8_HSUM4(Y0, Y1, Y2, Y3, X0, X1)
	VPSUBD X24, X0, X0
	VMOVDQU X0, (DI)
	I8_HSUM4(Y4, Y5, Y6, Y7, X4, X5)
	VPSUBD X25, X4, X4
	VMOVDQU X4, (DI)(R13*1)
	I8_HSUM4(Y8, Y9, Y10, Y11, X8, X9)
	VPSUBD X26, X8, X8
	VMOVDQU X8, (DI)(R13*2)
	I8_HSUM4(Y12, Y13, Y14, Y15, X12, X13)
	VPSUBD X27, X12, X12
	VMOVDQU X12, (DI)(R9*1)
	LEAQ (BX)(CX*4), BX
	LEAQ (R15)(CX*4), R15
	LEAQ (AX)(CX*4), AX
	LEAQ (DX)(CX*4), DX
	ADDQ $16, DI
	SUBQ $4, R8
	JMP  i8tile4

i8tile1:
	TESTQ R8, R8
	JZ   i8tiledone
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ R9, R9
	TESTQ R14, R14
	JZ   i8tile1tail
i8tile1loop:
	I8_LOADW(R9)
	VPXORD (BX)(R9*1), Y31, Y20
	I8_DP4(Y20, Y0, Y1, Y2, Y3)
	ADDQ $32, R9
	CMPQ R9, R14
	JLT  i8tile1loop
i8tile1tail:
	TESTQ $31, CX
	JZ   i8tile1store
	I8_LOADW_TAIL(R9)
	VMOVDQU8.Z (BX)(R9*1), K1, Y20
	VPXORD Y31, Y20, Y20
	I8_DP4(Y20, Y0, Y1, Y2, Y3)
i8tile1store:
	LEAQ (R13)(R13*2), R9
	I8_HSUM4(Y0, Y1, Y2, Y3, X0, X1)
	VPSUBD X28, X0, X0
	VMOVD   X0, (DI)
	VPEXTRD $1, X0, (DI)(R13*1)
	VPEXTRD $2, X0, (DI)(R13*2)
	VPEXTRD $3, X0, (DI)(R9*1)
	ADDQ CX, BX
	ADDQ $4, DI
	DECQ R8
	JMP  i8tile1

i8tiledone:
	VZEROUPPER
	RET

// func gemmI8AMX(t *i8AMXArgs)
//
// The int8 product on AMX tiles, patch-row major: a tile of sixteen patch
// rows (tmm4, one 64-byte k chunk of each, loaded straight from the patch
// matrix at row stride k) meets up to four packed channel blocks in turn
// (tmm6, 16 k groups of four bytes × 16 channels), TDPBSSD adding each
// block's signed-by-signed products into its accumulator tmm0..tmm3 — no
// bias, no row-sum correction. The last, partial chunk of a k that is not a
// multiple of 64 runs in tmm5/tmm7, configured as wide as it is; its load
// reads up to three bytes past a patch row, which meet zero weight padding.
// TDPBSSD's dword adds wrap, so the sums are the other kernels' modulo 2^32.
// Each accumulator (a patch block × sixteen channels) is stored to
// t.scratch, transposed in Z0..Z31 and written as sixteen channel rows of
// dst under the patch-row mask K1, the last channel block only as far as
// t.mlast. Channel groups of four blocks repeat over every patch block.
//
// Go's assembler has no AMX mnemonics, so those instructions are BYTE
// sequences, each after its Intel form; they address memory through AX,
// BX, CX, DX and SI only, which keeps the VEX prefix at C4 E2. The tile
// state is released before returning. An assembly function is never
// preempted asynchronously, so the tiles stay this goroutine's for the call.
#define AMX_LDTILECFG_AX     BYTE $0xC4; BYTE $0xE2; BYTE $0x78; BYTE $0x49; BYTE $0x00
#define AMX_TILERELEASE      BYTE $0xC4; BYTE $0xE2; BYTE $0x78; BYTE $0x49; BYTE $0xC0
#define AMX_TILEZERO(modrm)  BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x49; BYTE $modrm
// TILELOADD tmm4/tmm5, [SI+DX*1]; TILELOADD tmm6/tmm7, [BX+CX*1]
#define AMX_LOAD_A_FULL      BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x4B; BYTE $0x24; BYTE $0x16
#define AMX_LOAD_A_TAIL      BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x4B; BYTE $0x2C; BYTE $0x16
#define AMX_LOAD_B_FULL      BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x4B; BYTE $0x34; BYTE $0x0B
#define AMX_LOAD_B_TAIL      BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x4B; BYTE $0x3C; BYTE $0x0B
// TILESTORED [AX+CX*1], tmmN
#define AMX_STORE(modrm)     BYTE $0xC4; BYTE $0xE2; BYTE $0x7A; BYTE $0x4B; BYTE $modrm; BYTE $0x08
// TDPBSSD tmmN, tmm4, tmm6 (vex3 0x4B) / tmmN, tmm5, tmm7 (vex3 0x43)
#define AMX_DP(vex3, modrm)  BYTE $0xC4; BYTE $0xE2; BYTE $vex3; BYTE $0x5E; BYTE $modrm

// One k chunk against the group's R12 channel blocks: the patch tile is
// already loaded; BX walks the blocks from R14.
#define AMX_CHUNK(loadB, vex3, m0, m1, m2, m3, done) \
	MOVQ R14, BX; \
	loadB; \
	AMX_DP(vex3, m0); \
	CMPQ R12, $1; \
	JEQ  done; \
	ADDQ 120(R15), BX; \
	loadB; \
	AMX_DP(vex3, m1); \
	CMPQ R12, $2; \
	JEQ  done; \
	ADDQ 120(R15), BX; \
	loadB; \
	AMX_DP(vex3, m2); \
	CMPQ R12, $3; \
	JEQ  done; \
	ADDQ 120(R15), BX; \
	loadB; \
	AMX_DP(vex3, m3); \
done:

// Row r of the 16x16 dword tile in Z0..Z15 becomes column r: dwords, then
// qwords interleaved within 128-bit lanes, then the lanes shuffled twice.
#define TRANSPOSE_16X16 \
	VPUNPCKLDQ Z1, Z0, Z16; VPUNPCKHDQ Z1, Z0, Z17; \
	VPUNPCKLDQ Z3, Z2, Z18; VPUNPCKHDQ Z3, Z2, Z19; \
	VPUNPCKLDQ Z5, Z4, Z20; VPUNPCKHDQ Z5, Z4, Z21; \
	VPUNPCKLDQ Z7, Z6, Z22; VPUNPCKHDQ Z7, Z6, Z23; \
	VPUNPCKLDQ Z9, Z8, Z24; VPUNPCKHDQ Z9, Z8, Z25; \
	VPUNPCKLDQ Z11, Z10, Z26; VPUNPCKHDQ Z11, Z10, Z27; \
	VPUNPCKLDQ Z13, Z12, Z28; VPUNPCKHDQ Z13, Z12, Z29; \
	VPUNPCKLDQ Z15, Z14, Z30; VPUNPCKHDQ Z15, Z14, Z31; \
	VPUNPCKLQDQ Z18, Z16, Z0; VPUNPCKHQDQ Z18, Z16, Z1; \
	VPUNPCKLQDQ Z19, Z17, Z2; VPUNPCKHQDQ Z19, Z17, Z3; \
	VPUNPCKLQDQ Z22, Z20, Z4; VPUNPCKHQDQ Z22, Z20, Z5; \
	VPUNPCKLQDQ Z23, Z21, Z6; VPUNPCKHQDQ Z23, Z21, Z7; \
	VPUNPCKLQDQ Z26, Z24, Z8; VPUNPCKHQDQ Z26, Z24, Z9; \
	VPUNPCKLQDQ Z27, Z25, Z10; VPUNPCKHQDQ Z27, Z25, Z11; \
	VPUNPCKLQDQ Z30, Z28, Z12; VPUNPCKHQDQ Z30, Z28, Z13; \
	VPUNPCKLQDQ Z31, Z29, Z14; VPUNPCKHQDQ Z31, Z29, Z15; \
	VSHUFI32X4 $0x44, Z4, Z0, Z16; VSHUFI32X4 $0xEE, Z4, Z0, Z20; \
	VSHUFI32X4 $0x44, Z12, Z8, Z24; VSHUFI32X4 $0xEE, Z12, Z8, Z28; \
	VSHUFI32X4 $0x44, Z5, Z1, Z17; VSHUFI32X4 $0xEE, Z5, Z1, Z21; \
	VSHUFI32X4 $0x44, Z13, Z9, Z25; VSHUFI32X4 $0xEE, Z13, Z9, Z29; \
	VSHUFI32X4 $0x44, Z6, Z2, Z18; VSHUFI32X4 $0xEE, Z6, Z2, Z22; \
	VSHUFI32X4 $0x44, Z14, Z10, Z26; VSHUFI32X4 $0xEE, Z14, Z10, Z30; \
	VSHUFI32X4 $0x44, Z7, Z3, Z19; VSHUFI32X4 $0xEE, Z7, Z3, Z23; \
	VSHUFI32X4 $0x44, Z15, Z11, Z27; VSHUFI32X4 $0xEE, Z15, Z11, Z31; \
	VSHUFI32X4 $0x88, Z24, Z16, Z0; VSHUFI32X4 $0xDD, Z24, Z16, Z4; \
	VSHUFI32X4 $0x88, Z28, Z20, Z8; VSHUFI32X4 $0xDD, Z28, Z20, Z12; \
	VSHUFI32X4 $0x88, Z25, Z17, Z1; VSHUFI32X4 $0xDD, Z25, Z17, Z5; \
	VSHUFI32X4 $0x88, Z29, Z21, Z9; VSHUFI32X4 $0xDD, Z29, Z21, Z13; \
	VSHUFI32X4 $0x88, Z26, Z18, Z2; VSHUFI32X4 $0xDD, Z26, Z18, Z6; \
	VSHUFI32X4 $0x88, Z30, Z22, Z10; VSHUFI32X4 $0xDD, Z30, Z22, Z14; \
	VSHUFI32X4 $0x88, Z27, Z19, Z3; VSHUFI32X4 $0xDD, Z27, Z19, Z7; \
	VSHUFI32X4 $0x88, Z31, Z23, Z11; VSHUFI32X4 $0xDD, Z31, Z23, Z15

// One channel row of the transposed tile to dst; the last live row leaves.
#define AMX_ROW(z) \
	VMOVDQU32 z, K1, (SI); \
	ADDQ R14, SI; \
	DECQ BX; \
	JZ   amxrowsdone

TEXT ·gemmI8AMX(SB), NOSPLIT, $0-8
	MOVQ t+0(FP), R15
	MOVQ R15, AX          // the configuration is at offset 0
	AMX_LDTILECFG_AX
	LEAQ 160(R15), AX     // scratch
	MOVQ $64, CX          // weight tile and scratch row stride
	MOVQ 96(R15), DX      // patch row stride k
	KMOVW 152(R15), K1    // live patch rows
	MOVQ 72(R15), R8      // the group's first channel block
	MOVQ 128(R15), R11    // channel blocks left

amxgroup:
	MOVQ R11, R12         // blocks in this group: min(4, left)
	CMPQ R12, $4
	JLE  amxgroupset
	MOVQ $4, R12
amxgroupset:
	MOVQ 80(R15), R9      // patch block
	MOVQ 144(R15), R10    // patch blocks left
	MOVQ 64(R15), DI      // dst of the group's first row at this patch block

amxpix:
	AMX_TILEZERO(0xC0)
	AMX_TILEZERO(0xC8)
	AMX_TILEZERO(0xD0)
	AMX_TILEZERO(0xD8)
	MOVQ R9, SI
	MOVQ R8, R14          // chunk 0 of block 0
	MOVQ 104(R15), R13    // full chunks
	TESTQ R13, R13
	JZ   amxtail

amxchunk:
	AMX_LOAD_A_FULL
	AMX_CHUNK(AMX_LOAD_B_FULL, 0x4B, 0xC4, 0xCC, 0xD4, 0xDC, amxchunkdone)
	ADDQ $64, SI
	ADDQ $1024, R14
	DECQ R13
	JNZ  amxchunk

amxtail:
	CMPQ 112(R15), $0
	JEQ  amxstore
	AMX_LOAD_A_TAIL
	AMX_CHUNK(AMX_LOAD_B_TAIL, 0x43, 0xC5, 0xCD, 0xD5, 0xDD, amxtaildone)

amxstore:
	XORQ R13, R13         // block of the group
	MOVQ DI, SI           // its first channel row
	MOVQ 88(R15), R14     // dst row stride
amxblock:
	CMPQ R13, $1
	JEQ  amxst1
	JGT  amxst23
	AMX_STORE(0x04)
	JMP  amxstored
amxst1:
	AMX_STORE(0x0C)
	JMP  amxstored
amxst23:
	CMPQ R13, $3
	JEQ  amxst3
	AMX_STORE(0x14)
	JMP  amxstored
amxst3:
	AMX_STORE(0x1C)
amxstored:
	LEAQ 1(R13), BX       // live channel rows: 16, or mlast in the last block
	CMPQ BX, R11
	MOVQ $16, BX
	JNE  amxtranspose
	MOVQ 136(R15), BX
amxtranspose:
	VMOVDQU32 0(AX), Z0
	VMOVDQU32 64(AX), Z1
	VMOVDQU32 128(AX), Z2
	VMOVDQU32 192(AX), Z3
	VMOVDQU32 256(AX), Z4
	VMOVDQU32 320(AX), Z5
	VMOVDQU32 384(AX), Z6
	VMOVDQU32 448(AX), Z7
	VMOVDQU32 512(AX), Z8
	VMOVDQU32 576(AX), Z9
	VMOVDQU32 640(AX), Z10
	VMOVDQU32 704(AX), Z11
	VMOVDQU32 768(AX), Z12
	VMOVDQU32 832(AX), Z13
	VMOVDQU32 896(AX), Z14
	VMOVDQU32 960(AX), Z15
	TRANSPOSE_16X16
	AMX_ROW(Z0)
	AMX_ROW(Z1)
	AMX_ROW(Z2)
	AMX_ROW(Z3)
	AMX_ROW(Z4)
	AMX_ROW(Z5)
	AMX_ROW(Z6)
	AMX_ROW(Z7)
	AMX_ROW(Z8)
	AMX_ROW(Z9)
	AMX_ROW(Z10)
	AMX_ROW(Z11)
	AMX_ROW(Z12)
	AMX_ROW(Z13)
	AMX_ROW(Z14)
	AMX_ROW(Z15)
amxrowsdone:
	INCQ R13
	CMPQ R13, R12
	JLT  amxblock

	ADDQ $64, DI          // next patch block: 16 dwords on, 16 rows down
	MOVQ DX, BX
	SHLQ $4, BX
	ADDQ BX, R9
	DECQ R10
	JNZ  amxpix

	MOVQ 88(R15), BX      // next group: 64 channel rows down, 4 blocks on
	SHLQ $6, BX
	ADDQ BX, 64(R15)
	MOVQ 120(R15), BX
	SHLQ $2, BX
	ADDQ BX, R8
	SUBQ R12, R11
	JNZ  amxgroup

	AMX_TILERELEASE
	VZEROUPPER
	RET

// func requantRowsSIMD(a *requantArgs)
//
// The rows of a quantized product leave their accumulators: per row the
// scale a.scales[i]*a.sx (one VMULSS, as the scalar path multiplies) and the
// bias are broadcast, then per element VCVTDQ2PS, VMULPS, VADDPS and — when
// a.mean is set — the batch-norm sequence of TILE_BN and, when a.relu is,
// the rectifier, eight elements at a time and the last n%8 under a.mask. It
// is RequantizeRows' scalar loop in the same operation order (mul then add,
// never FMA), so the two are bit-identical.
#define REQUANT_STEP(skip) \
	VCVTDQ2PS Y0, Y0; \
	VMULPS Y8, Y0, Y0; \
	VADDPS Y9, Y0, Y0; \
	TESTQ R12, R12; \
	JZ   skip; \
	VSUBPS Y10, Y0, Y0; \
	VMULPS Y0, Y11, Y0; \
	VMULPS Y12, Y0, Y0; \
	VADDPS Y13, Y0, Y0; \
	TESTQ R9, R9; \
	JZ   skip; \
	VMAXPS Y14, Y0, Y0; \
skip:

TEXT ·requantRowsSIMD(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DX
	MOVQ 0(DX), DI        // dst
	MOVQ 8(DX), SI        // acc
	MOVQ 16(DX), CX       // n
	MOVQ 24(DX), R8       // rows
	MOVQ 32(DX), AX       // mask of the last n%8
	MOVQ 40(DX), R10      // scales
	MOVQ 48(DX), R11      // bias, or nil
	MOVQ 56(DX), R12      // mean, or nil for no epilogue
	MOVQ 64(DX), R13      // gamma
	MOVQ 72(DX), R14      // invStd
	MOVQ 80(DX), R15      // beta
	VMOVSS 88(DX), X7     // sx
	MOVBLZX 92(DX), R9    // relu
	VMOVDQU (AX), Y15
	VXORPS Y14, Y14, Y14
	MOVQ CX, DX
	SHRQ $3, DX           // whole vectors per row
	ANDQ $7, CX           // elements after them
	XORQ BX, BX           // row

requantrow:
	VMULSS (R10)(BX*4), X7, X8
	VSHUFPS $0, X8, X8, X8
	VINSERTF128 $1, X8, Y8, Y8
	VXORPS Y9, Y9, Y9
	TESTQ R11, R11
	JZ   requantbn
	VBROADCASTSS (R11)(BX*4), Y9
requantbn:
	TESTQ R12, R12
	JZ   requantsweep
	VBROADCASTSS (R12)(BX*4), Y10
	VBROADCASTSS (R13)(BX*4), Y11
	VBROADCASTSS (R14)(BX*4), Y12
	VBROADCASTSS (R15)(BX*4), Y13
requantsweep:
	MOVQ DX, AX
	TESTQ AX, AX
	JZ   requanttail
requantloop:
	VMOVDQU (SI), Y0
	REQUANT_STEP(requantstore)
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ AX
	JNZ  requantloop
requanttail:
	TESTQ CX, CX
	JZ   requantnext
	VMASKMOVPS (SI), Y15, Y0
	REQUANT_STEP(requantstoretail)
	VMASKMOVPS Y0, Y15, (DI)
	LEAQ (SI)(CX*4), SI
	LEAQ (DI)(CX*4), DI
requantnext:
	INCQ BX
	CMPQ BX, R8
	JLT  requantrow
	VZEROUPPER
	RET

// Constants of the int8 front passes, one dword each, broadcast on entry.
DATA i8front<>+0(SB)/4, $0x7fffffff  // magnitude bits
DATA i8front<>+4(SB)/4, $0x42fe0000  // 127.0
DATA i8front<>+8(SB)/4, $0xc2fe0000  // -127.0
DATA i8front<>+12(SB)/4, $0x80000000 // sign bit
DATA i8front<>+16(SB)/4, $0x3f000000 // 0.5
DATA i8front<>+20(SB)/4, $0x000000ff // low byte
GLOBL i8front<>(SB), RODATA|NOPTR, $24

// func maxAbsSIMD(xs *float32, n int, mask *[16]int32) uint32
//
// Unsigned max over |x| bit patterns (VPAND then VPMAXUD), 32 values a step
// in four accumulators, then eight a step, then the last n%8 under a masked
// load whose dead lanes read 0, the identity of the max.
TEXT ·maxAbsSIMD(SB), NOSPLIT, $0-28
	MOVQ xs+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ mask+16(FP), AX
	VPBROADCASTD i8front<>+0(SB), Y15
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ CX, DX
	SHRQ $5, DX
	JZ   maxabs8
maxabsloop32:
	VPAND (SI), Y15, Y4
	VPAND 32(SI), Y15, Y5
	VPAND 64(SI), Y15, Y6
	VPAND 96(SI), Y15, Y7
	VPMAXUD Y4, Y0, Y0
	VPMAXUD Y5, Y1, Y1
	VPMAXUD Y6, Y2, Y2
	VPMAXUD Y7, Y3, Y3
	ADDQ $128, SI
	DECQ DX
	JNZ  maxabsloop32
maxabs8:
	MOVQ CX, DX
	SHRQ $3, DX
	ANDQ $3, DX
	JZ   maxabstail
maxabsloop8:
	VPAND (SI), Y15, Y4
	VPMAXUD Y4, Y0, Y0
	ADDQ $32, SI
	DECQ DX
	JNZ  maxabsloop8
maxabstail:
	ANDQ $7, CX
	JZ   maxabsreduce
	VMOVDQU (AX), Y14
	VPMASKMOVD (SI), Y14, Y4
	VPAND Y4, Y15, Y4
	VPMAXUD Y4, Y0, Y0
maxabsreduce:
	VPMAXUD Y1, Y0, Y0
	VPMAXUD Y3, Y2, Y2
	VPMAXUD Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPMAXUD X1, X0, X0
	VPSHUFD $0xB1, X0, X1
	VPMAXUD X1, X0, X0
	VMOVD X0, AX
	MOVL AX, ret+24(FP)
	VZEROUPPER
	RET

// quantI8 on eight lanes: q receives, zero-extended in each dword, the int8
// the scalar form stores for the eight floats at src, with 1/scale in Y8 and
// i8front's 127, -127, sign, 0.5 and low-byte constants in Y9..Y13. The
// value is the second source of VMINPS and VMAXPS (the first operand in this
// syntax), which is the one they return when either is a NaN: a NaN passes
// the clamp as it passes the two compares of quantI8, converts to
// 0x80000000, and its low byte is the 0 the scalar int8() gives. A
// saturating pack would make that -128.
#define I8_QUANT(src, q, t) \
	VMULPS src, Y8, q; \
	VMINPS q, Y9, q; \
	VMAXPS q, Y10, q; \
	VPAND  q, Y11, t; \
	VPOR   t, Y12, t; \
	VADDPS t, q, q; \
	VCVTTPS2DQ q, q; \
	VPAND  Y13, q, q

// Y0..Y3 hold four channels of eight pixels (I8_QUANT output); Y0 receives
// one dword per pixel, channel j in byte j, cut to the bytes live in Y14.
#define I8_MERGE \
	VPSLLD $8, Y1, Y1; \
	VPSLLD $16, Y2, Y2; \
	VPSLLD $24, Y3, Y3; \
	VPOR   Y1, Y0, Y0; \
	VPOR   Y3, Y2, Y2; \
	VPOR   Y2, Y0, Y0; \
	VPAND  Y14, Y0, Y0

// func quantHWCSIMD(a *quantHWCArgs)
//
// Channel groups of four outermost (the last one moved back to c-4 when c is
// not a multiple of four), then image rows, then eight pixels a step: four
// plane rows in, eight dwords out at stride c. The source planes are dense,
// so the four read pointers only ever advance; the write pointer restarts
// from each plane row's first interior pixel.
TEXT ·quantHWCSIMD(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DX
	VBROADCASTSS 88(DX), Y8
	VBROADCASTSS i8front<>+4(SB), Y9
	VBROADCASTSS i8front<>+8(SB), Y10
	VBROADCASTSS i8front<>+12(SB), Y11
	VBROADCASTSS i8front<>+16(SB), Y12
	VBROADCASTSS i8front<>+20(SB), Y13
	VBROADCASTSS 92(DX), Y14
	MOVQ 80(DX), AX
	VMOVDQU (AX), Y15     // the row's last w%8 pixels
	MOVQ 16(DX), R12      // c
	LEAQ (R12)(R12*2), R13
	XORQ R14, R14         // the group's first channel

qhwcgroup:
	MOVQ 48(DX), R8
	IMULQ R14, R8
	ADDQ 8(DX), R8        // the group's four source planes
	MOVQ 56(DX), R9
	ADDQ R8, R9
	MOVQ 64(DX), R10
	ADDQ R8, R10
	MOVQ 72(DX), R11
	ADDQ R8, R11
	MOVQ 0(DX), BX
	ADDQ R14, BX          // the group's bytes of the row's first pixel
	MOVQ 24(DX), CX       // rows left

qhwcrow:
	MOVQ BX, DI
	MOVQ 32(DX), SI
	SHRQ $3, SI           // whole steps in the row
	JZ   qhwctail
qhwcstep:
	I8_QUANT((R8), Y0, Y4)
	I8_QUANT((R9), Y1, Y5)
	I8_QUANT((R10), Y2, Y6)
	I8_QUANT((R11), Y3, Y7)
	I8_MERGE
	LEAQ (DI)(R12*4), R15
	VMOVD X0, (DI)
	VPEXTRD $1, X0, (DI)(R12*1)
	VPEXTRD $2, X0, (DI)(R12*2)
	VPEXTRD $3, X0, (DI)(R13*1)
	VEXTRACTI128 $1, Y0, X1
	VMOVD X1, (R15)
	VPEXTRD $1, X1, (R15)(R12*1)
	VPEXTRD $2, X1, (R15)(R12*2)
	VPEXTRD $3, X1, (R15)(R13*1)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	LEAQ (DI)(R12*8), DI
	DECQ SI
	JNZ  qhwcstep

qhwctail:
	MOVQ 32(DX), SI
	ANDQ $7, SI           // pixels after them: 1..7 stores
	JZ   qhwcnext
	VMASKMOVPS (R8), Y15, Y0
	VMASKMOVPS (R9), Y15, Y1
	VMASKMOVPS (R10), Y15, Y2
	VMASKMOVPS (R11), Y15, Y3
	I8_QUANT(Y0, Y0, Y4)
	I8_QUANT(Y1, Y1, Y5)
	I8_QUANT(Y2, Y2, Y6)
	I8_QUANT(Y3, Y3, Y7)
	I8_MERGE
	LEAQ (R8)(SI*4), R8
	LEAQ (R9)(SI*4), R9
	LEAQ (R10)(SI*4), R10
	LEAQ (R11)(SI*4), R11
	VMOVD X0, (DI)
	DECQ SI
	JZ   qhwcnext
	VPEXTRD $1, X0, (DI)(R12*1)
	DECQ SI
	JZ   qhwcnext
	VPEXTRD $2, X0, (DI)(R12*2)
	DECQ SI
	JZ   qhwcnext
	VPEXTRD $3, X0, (DI)(R13*1)
	DECQ SI
	JZ   qhwcnext
	LEAQ (DI)(R12*4), R15
	VEXTRACTI128 $1, Y0, X1
	VMOVD X1, (R15)
	DECQ SI
	JZ   qhwcnext
	VPEXTRD $1, X1, (R15)(R12*1)
	DECQ SI
	JZ   qhwcnext
	VPEXTRD $2, X1, (R15)(R12*2)

qhwcnext:
	ADDQ 40(DX), BX
	DECQ CX
	JNZ  qhwcrow
	ADDQ $4, R14
	CMPQ R14, R12
	JGE  qhwcdone
	LEAQ -4(R12), AX
	CMPQ R14, AX
	CMOVQGT AX, R14
	JMP  qhwcgroup
qhwcdone:
	VZEROUPPER
	RET

// The dword order VPACKUSDW and VPACKUSWB leave four vectors of eight in:
// both work within 128-bit lanes.
DATA i8packorder<>+0(SB)/4, $0
DATA i8packorder<>+4(SB)/4, $4
DATA i8packorder<>+8(SB)/4, $1
DATA i8packorder<>+12(SB)/4, $5
DATA i8packorder<>+16(SB)/4, $2
DATA i8packorder<>+20(SB)/4, $6
DATA i8packorder<>+24(SB)/4, $3
DATA i8packorder<>+28(SB)/4, $7
GLOBL i8packorder<>(SB), RODATA|NOPTR, $32

// func quantI8SIMD(dst *int8, src *float32, n int, inv float32)
//
// I8_QUANT with a contiguous store: 32 values a step, then eight a step. The
// lanes hold 0..255 after I8_QUANT's low-byte mask, so the unsigned packs
// narrow them exactly — nothing is left for them to saturate.
TEXT ·quantI8SIMD(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS inv+24(FP), Y8
	VBROADCASTSS i8front<>+4(SB), Y9
	VBROADCASTSS i8front<>+8(SB), Y10
	VBROADCASTSS i8front<>+12(SB), Y11
	VBROADCASTSS i8front<>+16(SB), Y12
	VBROADCASTSS i8front<>+20(SB), Y13
	VMOVDQU i8packorder<>(SB), Y14
	MOVQ CX, DX
	SHRQ $5, DX
	JZ   quant8
quantloop32:
	I8_QUANT((SI), Y0, Y4)
	I8_QUANT(32(SI), Y1, Y5)
	I8_QUANT(64(SI), Y2, Y6)
	I8_QUANT(96(SI), Y3, Y7)
	VPACKUSDW Y1, Y0, Y0
	VPACKUSDW Y3, Y2, Y2
	VPACKUSWB Y2, Y0, Y0
	VPERMD Y0, Y14, Y0
	VMOVDQU Y0, (DI)
	ADDQ $128, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  quantloop32
quant8:
	SHRQ $3, CX
	ANDQ $3, CX
	JZ   quantdone
quantloop8:
	I8_QUANT((SI), Y0, Y4)
	VPACKUSDW Y0, Y0, Y0
	VPACKUSWB Y0, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPUNPCKLDQ X1, X0, X0
	VMOVQ X0, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  quantloop8
quantdone:
	VZEROUPPER
	RET

// func im2rowI8SIMD(a *im2rowI8Args)
//
// Every kernel row of every patch is a.seg bytes copied from the plane to
// the next a.seg bytes of dst. The three loops around the copy — output row,
// output pixel, kernel row — are the same for every seg; the copy is chosen
// once by its size: 32-byte moves ending in one that overlaps the previous
// (seg >= 32), two overlapping 16- or 8-byte moves (seg >= 16, >= 8), or
// bytes.
#define I8_PATCH_ROWS(oy, ox, ky) \
oy: \
	MOVQ R8, R10; \
	MOVQ 24(DX), R11; \
ox: \
	MOVQ R10, SI; \
	MOVQ 32(DX), BX; \
ky:

#define I8_PATCH_NEXT(oy, ox, ky) \
	ADDQ CX, DI; \
	ADDQ R12, SI; \
	DECQ BX; \
	JNZ  ky; \
	ADDQ R13, R10; \
	DECQ R11; \
	JNZ  ox; \
	ADDQ 64(DX), R8; \
	DECQ R9; \
	JNZ  oy; \
	VZEROUPPER; \
	RET

TEXT ·im2rowI8SIMD(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DX
	MOVQ 0(DX), DI
	MOVQ 8(DX), R8        // first window of the output row
	MOVQ 16(DX), R9       // output rows left
	MOVQ 40(DX), CX       // seg
	MOVQ 48(DX), R12      // rowStep
	MOVQ 56(DX), R13      // pixStep
	CMPQ CX, $32
	JGE  patch32
	CMPQ CX, $16
	JGE  patch16
	CMPQ CX, $8
	JGE  patch8

	I8_PATCH_ROWS(patch1oy, patch1ox, patch1ky)
	XORQ AX, AX
patch1byte:
	MOVB (SI)(AX*1), R14
	MOVB R14, (DI)(AX*1)
	INCQ AX
	CMPQ AX, CX
	JLT  patch1byte
	I8_PATCH_NEXT(patch1oy, patch1ox, patch1ky)

patch8:
	LEAQ -8(CX), R15
	I8_PATCH_ROWS(patch8oy, patch8ox, patch8ky)
	MOVQ (SI), AX
	MOVQ (SI)(R15*1), R14
	MOVQ AX, (DI)
	MOVQ R14, (DI)(R15*1)
	I8_PATCH_NEXT(patch8oy, patch8ox, patch8ky)

patch16:
	LEAQ -16(CX), R15
	I8_PATCH_ROWS(patch16oy, patch16ox, patch16ky)
	VMOVDQU (SI), X0
	VMOVDQU (SI)(R15*1), X1
	VMOVDQU X0, (DI)
	VMOVDQU X1, (DI)(R15*1)
	I8_PATCH_NEXT(patch16oy, patch16ox, patch16ky)

patch32:
	LEAQ -32(CX), R15     // where the last move starts
	I8_PATCH_ROWS(patch32oy, patch32ox, patch32ky)
	XORQ AX, AX
	TESTQ R15, R15
	JZ   patch32last
patch32move:
	VMOVDQU (SI)(AX*1), Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R15
	JLT  patch32move
patch32last:
	VMOVDQU (SI)(R15*1), Y0
	VMOVDQU Y0, (DI)(R15*1)
	I8_PATCH_NEXT(patch32oy, patch32ox, patch32ky)

// func depthwise3x3SIMD(a *dwArgs)
//
// Channels a.ch up to a.end of a 3x3 depthwise convolution (see
// DepthwiseFused), counted in a.ch, the one field it writes: each channel's
// input, weights, output and epilogue values are found from channel 0's. Per
// channel the input is first copied into the interior of the zero-bordered
// plane — at stride 2 each row de-interleaved, even columns to a.evenAt and
// odd ones to a.oddAt, eight at a time with two VSHUFPS — and the nine
// weights are broadcast into Y7..Y15. Then a tile of four output rows
// (sources R12..R15, a.tileSrc past the first) and 8, 4 or 1 columns is
// summed in Y0..Y3 from +0, tap by tap in (ky, kx) order, one VMULPS and one
// VADDPS each through the one temporary Y4 — four independent chains, so
// the adds' latency overlaps; a window row's three taps are 0, a.tap1 and
// a.tap2 bytes along its plane row. When a.mean is set, the batch-norm
// sequence of TILE_BN and, when a.relu is, VMAXPS against the +0 in Y6
// finish the tile before it is stored. Tiles start every four output rows,
// the last one moved back to end on the last row; with fewer than four rows
// the tile's spare rows repeat its last. Either way a row computed twice is
// stored twice with the same bits.
#define DW_TAP8(w, a0, a1, a2, a3) \
	VMULPS a0, w, Y4; \
	VADDPS Y4, Y0, Y0; \
	VMULPS a1, w, Y4; \
	VADDPS Y4, Y1, Y1; \
	VMULPS a2, w, Y4; \
	VADDPS Y4, Y2, Y2; \
	VMULPS a3, w, Y4; \
	VADDPS Y4, Y3, Y3

#define DW_TAP4(w, a0, a1, a2, a3) \
	VMULPS a0, w, X4; \
	VADDPS X4, X0, X0; \
	VMULPS a1, w, X4; \
	VADDPS X4, X1, X1; \
	VMULPS a2, w, X4; \
	VADDPS X4, X2, X2; \
	VMULPS a3, w, X4; \
	VADDPS X4, X3, X3

#define DW_TAP1(w, a0, a1, a2, a3) \
	VMULSS a0, w, X4; \
	VADDSS X4, X0, X0; \
	VMULSS a1, w, X4; \
	VADDSS X4, X1, X1; \
	VMULSS a2, w, X4; \
	VADDSS X4, X2, X2; \
	VMULSS a3, w, X4; \
	VADDSS X4, X3, X3

// The three taps of one window row, then the four source rows move down one
// plane row.
#define DW_KY(TAP, w0, w1, w2) \
	TAP(w0, (R12), (R13), (R14), (R15)); \
	TAP(w1, (R12)(R10*1), (R13)(R10*1), (R14)(R10*1), (R15)(R10*1)); \
	TAP(w2, (R12)(R11*1), (R13)(R11*1), (R14)(R11*1), (R15)(R11*1)); \
	ADDQ R8, R12; \
	ADDQ R8, R13; \
	ADDQ R8, R14; \
	ADDQ R8, R15

#define DW_WINDOW(TAP, w0, w1, w2, w3, w4, w5, w6, w7, w8) \
	MOVQ SI, R12; \
	MOVQ SI, R13; \
	ADDQ 136(DX), R13; \
	MOVQ SI, R14; \
	ADDQ 144(DX), R14; \
	MOVQ SI, R15; \
	ADDQ 152(DX), R15; \
	DW_KY(TAP, w0, w1, w2); \
	DW_KY(TAP, w3, w4, w5); \
	DW_KY(TAP, w6, w7, w8)

#define DW_EPILOGUE(done) \
	MOVQ 216(DX), R12; \
	TESTQ R12, R12; \
	JZ   done; \
	MOVQ 256(DX), R13; \
	VBROADCASTSS (R12)(R13*4), Y5; \
	VSUBPS Y5, Y0, Y0; \
	VSUBPS Y5, Y1, Y1; \
	VSUBPS Y5, Y2, Y2; \
	VSUBPS Y5, Y3, Y3; \
	MOVQ 224(DX), R12; \
	VBROADCASTSS (R12)(R13*4), Y5; \
	VMULPS Y0, Y5, Y0; \
	VMULPS Y1, Y5, Y1; \
	VMULPS Y2, Y5, Y2; \
	VMULPS Y3, Y5, Y3; \
	MOVQ 232(DX), R12; \
	VBROADCASTSS (R12)(R13*4), Y5; \
	VMULPS Y5, Y0, Y0; \
	VMULPS Y5, Y1, Y1; \
	VMULPS Y5, Y2, Y2; \
	VMULPS Y5, Y3, Y3; \
	MOVQ 240(DX), R12; \
	VBROADCASTSS (R12)(R13*4), Y5; \
	VADDPS Y5, Y0, Y0; \
	VADDPS Y5, Y1, Y1; \
	VADDPS Y5, Y2, Y2; \
	VADDPS Y5, Y3, Y3; \
	CMPB 248(DX), $0; \
	JEQ  done; \
	VMAXPS Y6, Y0, Y0; \
	VMAXPS Y6, Y1, Y1; \
	VMAXPS Y6, Y2, Y2; \
	VMAXPS Y6, Y3, Y3; \
done:

#define DW_STORE(MOV, r0, r1, r2, r3) \
	MOV r0, (DI); \
	MOVQ 160(DX), R12; \
	MOV r1, (DI)(R12*1); \
	MOVQ 168(DX), R12; \
	MOV r2, (DI)(R12*1); \
	MOVQ 176(DX), R12; \
	MOV r3, (DI)(R12*1)

#define DW_ZERO \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3

TEXT ·depthwise3x3SIMD(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DX
	VXORPS Y6, Y6, Y6

dwchannel:
	MOVQ 256(DX), SI
	IMULQ 200(DX), SI
	ADDQ 8(DX), SI        // input plane
	MOVQ 32(DX), DI       // its first row's plane row
	MOVQ 48(DX), CX       // rows left
	MOVQ 80(DX), R8       // pw4
	MOVQ 88(DX), R10      // evenAt
	MOVQ 96(DX), R11      // oddAt
	CMPQ 192(DX), $1
	JNE  dwsplitrow

dwcopyrow:
	LEAQ (DI)(R10*1), R9
	MOVQ 56(DX), AX
dwcopy8:
	CMPQ AX, $8
	JLT  dwcopy4
	VMOVUPS (SI), Y0
	VMOVUPS Y0, (R9)
	ADDQ $32, SI
	ADDQ $32, R9
	SUBQ $8, AX
	JMP  dwcopy8
dwcopy4:
	CMPQ AX, $4
	JLT  dwcopy1
	VMOVUPS (SI), X0
	VMOVUPS X0, (R9)
	ADDQ $16, SI
	ADDQ $16, R9
	SUBQ $4, AX
dwcopy1:
	TESTQ AX, AX
	JZ   dwcopied
	MOVL (SI), R13
	MOVL R13, (R9)
	ADDQ $4, SI
	ADDQ $4, R9
	DECQ AX
	JMP  dwcopy1
dwcopied:
	ADDQ R8, DI
	DECQ CX
	JNZ  dwcopyrow
	JMP  dwweights

dwsplitrow:
	LEAQ (DI)(R10*1), R9  // even columns
	LEAQ (DI)(R11*1), R12 // odd columns
	MOVQ 56(DX), AX
dwsplit8:
	CMPQ AX, $8
	JLT  dwsplit2
	VMOVUPS (SI), X0
	VMOVUPS 16(SI), X1
	VSHUFPS $0x88, X1, X0, X2
	VSHUFPS $0xDD, X1, X0, X3
	VMOVUPS X2, (R9)
	VMOVUPS X3, (R12)
	ADDQ $32, SI
	ADDQ $16, R9
	ADDQ $16, R12
	SUBQ $8, AX
	JMP  dwsplit8
dwsplit2:
	CMPQ AX, $2
	JLT  dwsplit1
	MOVL (SI), R13
	MOVL R13, (R9)
	MOVL 4(SI), R13
	MOVL R13, (R12)
	ADDQ $8, SI
	ADDQ $4, R9
	ADDQ $4, R12
	SUBQ $2, AX
	JMP  dwsplit2
dwsplit1:
	TESTQ AX, AX
	JZ   dwsplitdone
	MOVL (SI), R13
	MOVL R13, (R9)
	ADDQ $4, SI
dwsplitdone:
	ADDQ R8, DI
	DECQ CX
	JNZ  dwsplitrow

dwweights:
	MOVQ 256(DX), AX
	IMULQ $36, AX
	ADDQ 16(DX), AX
	VBROADCASTSS 0(AX), Y7
	VBROADCASTSS 4(AX), Y8
	VBROADCASTSS 8(AX), Y9
	VBROADCASTSS 12(AX), Y10
	VBROADCASTSS 16(AX), Y11
	VBROADCASTSS 20(AX), Y12
	VBROADCASTSS 24(AX), Y13
	VBROADCASTSS 28(AX), Y14
	VBROADCASTSS 32(AX), Y15
	MOVQ 104(DX), R10     // tap1
	MOVQ 112(DX), R11     // tap2
	XORQ BX, BX           // the tile's first output row

dwtile:
	MOVQ BX, SI
	IMULQ 120(DX), SI
	ADDQ 24(DX), SI       // its first tap in the plane
	MOVQ BX, DI
	IMULQ 128(DX), DI
	MOVQ 256(DX), R12
	IMULQ 208(DX), R12
	ADDQ R12, DI
	ADDQ 0(DX), DI        // its first output
	MOVQ 72(DX), AX       // columns left

dwcols8:
	CMPQ AX, $8
	JLT  dwcols4
	DW_ZERO
	DW_WINDOW(DW_TAP8, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	DW_EPILOGUE(dwstore8)
	DW_STORE(VMOVUPS, Y0, Y1, Y2, Y3)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, AX
	JMP  dwcols8

dwcols4:
	CMPQ AX, $4
	JLT  dwcols1
	DW_ZERO
	DW_WINDOW(DW_TAP4, X7, X8, X9, X10, X11, X12, X13, X14, X15)
	DW_EPILOGUE(dwstore4)
	DW_STORE(VMOVUPS, X0, X1, X2, X3)
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $4, AX

dwcols1:
	TESTQ AX, AX
	JZ   dwnexttile
	DW_ZERO
	DW_WINDOW(DW_TAP1, X7, X8, X9, X10, X11, X12, X13, X14, X15)
	DW_EPILOGUE(dwstore1)
	DW_STORE(VMOVSS, X0, X1, X2, X3)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ AX
	JMP  dwcols1

dwnexttile:
	ADDQ 184(DX), BX
	MOVQ 64(DX), AX
	CMPQ BX, AX
	JGE  dwnextchannel
	SUBQ 184(DX), AX      // the last tile's first row
	CMPQ BX, AX
	CMOVQGT AX, BX
	JMP  dwtile

dwnextchannel:
	INCQ 256(DX)
	MOVQ 256(DX), AX
	CMPQ AX, 40(DX)
	JLT  dwchannel
	VZEROUPPER
	RET

// func maxPool2AVX512(a *pool2Args)
//
// 2x2 max pooling at stride 2 (see MaxPool2 and pool2Args): per step two ZMM
// of the line's top source (Z0, Z1) and two of its bottom source (Z2, Z3)
// are loaded, and VPERMI2PS gathers each window's four values a, b, c, d
// into lanes of Z4..Z7 through the lane tables held in Z24..Z27. Three
// VMAXPS then fold them in window order, the candidate as first source and
// the running maximum as second: VMAXPS returns its second source unless
// the first is greater, NaN and -0 against +0 included, which is maxGT to
// the bit. Full steps store under K1; a line's last outputs are one more
// step whose loads are zeroed past the line by K2 and K3 and whose store is
// cut to the outputs left by K4.
#define POOL_WINDOWS \
	VMOVAPS Z24, Z4; \
	VPERMI2PS Z1, Z0, Z4; \
	VMOVAPS Z25, Z5; \
	VPERMI2PS Z1, Z0, Z5; \
	VMOVAPS Z26, Z6; \
	VPERMI2PS Z3, Z2, Z6; \
	VMOVAPS Z27, Z7; \
	VPERMI2PS Z3, Z2, Z7; \
	VMAXPS Z4, Z5, Z4; \
	VMAXPS Z4, Z6, Z4; \
	VMAXPS Z4, Z7, Z4

TEXT ·maxPool2AVX512(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DX
	MOVQ 0(DX), DI        // dst
	MOVQ 8(DX), SI        // first line's top source
	MOVQ 16(DX), AX       // lane tables a, b, c, d
	VMOVUPS (AX), Z24
	VMOVUPS 64(AX), Z25
	VMOVUPS 128(AX), Z26
	VMOVUPS 192(AX), Z27
	MOVQ 56(DX), R8       // below
	MOVQ 48(DX), R12      // outputs per full step
	MOVQ 80(DX), AX
	KMOVW AX, K1
	MOVQ 88(DX), AX
	KMOVW AX, K2
	MOVQ 96(DX), AX
	KMOVW AX, K3
	MOVQ 104(DX), AX
	KMOVW AX, K4
	MOVQ 24(DX), R10      // planes

poolplane:
	MOVQ 32(DX), R11      // lines in this plane

poolline:
	MOVQ SI, BX
	MOVQ 40(DX), CX       // outputs left in the line

poolstep:
	CMPQ CX, R12
	JLT  pooltail
	VMOVUPS (BX), Z0
	VMOVUPS 64(BX), Z1
	VMOVUPS (BX)(R8*1), Z2
	VMOVUPS 64(BX)(R8*1), Z3
	POOL_WINDOWS
	VMOVUPS Z4, K1, (DI)
	ADDQ $128, BX
	LEAQ (DI)(R12*4), DI
	SUBQ R12, CX
	JMP  poolstep

pooltail:
	TESTQ CX, CX
	JZ   poolnextline
	VMOVUPS.Z (BX), K2, Z0
	VMOVUPS.Z 64(BX), K3, Z1
	VMOVUPS.Z (BX)(R8*1), K2, Z2
	VMOVUPS.Z 64(BX)(R8*1), K3, Z3
	POOL_WINDOWS
	VMOVUPS Z4, K4, (DI)
	LEAQ (DI)(CX*4), DI

poolnextline:
	ADDQ 64(DX), SI
	DECQ R11
	JNZ  poolline
	ADDQ 72(DX), SI
	DECQ R10
	JNZ  poolplane
	VZEROUPPER
	RET

// func addSIMD(dst, src *float32, n int, mask *[16]int32, relu bool)
//
// dst[i] += src[i] — and, when relu is set, then max(dst[i], +0) with +0 as
// the second source, tensor.ReLU's result for every input — 32 floats a step,
// then 8, then the last n%8 under mask. Which of two NaN operands a sum
// keeps is the hardware's operand-order rule, as in the tile kernels.
#define ELT_ADD(d, s) \
	VADDPS s, d, d

#define ELT_ADDRELU(d, s) \
	VADDPS s, d, d; \
	VMAXPS Y15, d, d

#define ELT_LOOP(OP, wide, narrow, tail, done) \
wide: \
	CMPQ CX, $32; \
	JLT  narrow; \
	VMOVUPS (DI), Y0; \
	VMOVUPS 32(DI), Y1; \
	VMOVUPS 64(DI), Y2; \
	VMOVUPS 96(DI), Y3; \
	OP(Y0, (SI)); \
	OP(Y1, 32(SI)); \
	OP(Y2, 64(SI)); \
	OP(Y3, 96(SI)); \
	VMOVUPS Y0, (DI); \
	VMOVUPS Y1, 32(DI); \
	VMOVUPS Y2, 64(DI); \
	VMOVUPS Y3, 96(DI); \
	ADDQ $128, DI; \
	ADDQ $128, SI; \
	SUBQ $32, CX; \
	JMP  wide; \
narrow: \
	CMPQ CX, $8; \
	JLT  tail; \
	VMOVUPS (DI), Y0; \
	OP(Y0, (SI)); \
	VMOVUPS Y0, (DI); \
	ADDQ $32, DI; \
	ADDQ $32, SI; \
	SUBQ $8, CX; \
	JMP  narrow; \
tail: \
	TESTQ CX, CX; \
	JZ   done; \
	VMOVDQU (AX), Y14; \
	VMASKMOVPS (DI), Y14, Y0; \
	VMASKMOVPS (SI), Y14, Y1; \
	OP(Y0, Y1); \
	VMASKMOVPS Y0, Y14, (DI); \
done: \
	VZEROUPPER; \
	RET

TEXT ·addSIMD(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ mask+24(FP), AX
	VXORPS Y15, Y15, Y15
	CMPB relu+32(FP), $0
	JNE  addrelu
	ELT_LOOP(ELT_ADD, add32, add8, addtail, adddone)
addrelu:
	ELT_LOOP(ELT_ADDRELU, addrelu32, addrelu8, addrelutail, addreludone)

// func reluSIMD(dst, src *float32, n int, mask *[16]int32)
//
// dst[i] = max(src[i], +0) with +0 as the second source (tensor.ReLU), in
// addSIMD's steps; dst may equal src.
#define RELU_LOOP(wide, narrow, tail, done) \
wide: \
	CMPQ CX, $32; \
	JLT  narrow; \
	VMOVUPS (SI), Y0; \
	VMOVUPS 32(SI), Y1; \
	VMOVUPS 64(SI), Y2; \
	VMOVUPS 96(SI), Y3; \
	VMAXPS Y15, Y0, Y0; \
	VMAXPS Y15, Y1, Y1; \
	VMAXPS Y15, Y2, Y2; \
	VMAXPS Y15, Y3, Y3; \
	VMOVUPS Y0, (DI); \
	VMOVUPS Y1, 32(DI); \
	VMOVUPS Y2, 64(DI); \
	VMOVUPS Y3, 96(DI); \
	ADDQ $128, DI; \
	ADDQ $128, SI; \
	SUBQ $32, CX; \
	JMP  wide; \
narrow: \
	CMPQ CX, $8; \
	JLT  tail; \
	VMOVUPS (SI), Y0; \
	VMAXPS Y15, Y0, Y0; \
	VMOVUPS Y0, (DI); \
	ADDQ $32, DI; \
	ADDQ $32, SI; \
	SUBQ $8, CX; \
	JMP  narrow; \
tail: \
	TESTQ CX, CX; \
	JZ   done; \
	VMOVDQU (AX), Y14; \
	VMASKMOVPS (SI), Y14, Y0; \
	VMAXPS Y15, Y0, Y0; \
	VMASKMOVPS Y0, Y14, (DI); \
done: \
	VZEROUPPER; \
	RET

TEXT ·reluSIMD(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ mask+24(FP), AX
	VXORPS Y15, Y15, Y15
	RELU_LOOP(relu32, relu8, relutail, reludone)

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
