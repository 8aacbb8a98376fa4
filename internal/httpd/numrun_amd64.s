//go:build amd64

#include "textflag.h"

// func scanRunVBMI(b []byte, i int, dst []float32, count int) (end, n int)
//
// Parses the run of numbers at b[i:] that have the wire's common shape,
// -?(0|[1-9][0-9]*)\.[0-9]+ then ',' or ']', and stops at the first token it
// does not take, or after a number closed by ']'. Each number is one 64-byte
// load at its first byte, so it runs only while 64 bytes of b remain there.
//
// The next number's place comes first, in the fewest steps: t, the first
// byte of the load outside '-'…'9', is the terminator if the number has the
// shape. The shape is then checked on the digit, point and sign masks: a
// sign s at byte 0 at most, one point q, every other byte below t a digit,
// at most 18 integer digits without a leading zero, 1 to 22 fraction digits,
// at most 18 significant digits (leading fraction zeros do not count).
// vpermb gathers the digits, right-aligned in 24 bytes and past the point;
// vpmaddubsw (10,1), vpmaddwd (100,1), vpackusdw and vpmaddwd (10000,1)
// fold them into three 8-digit values, w = (hi·1e8 + mid)·1e8 + lo < 2⁶³.
// The float32 is guardedFloat32(w, −fraction digits) instruction for
// instruction: vcvtsi2sdq, vmulsd by pow10f, the same binade and
// rounding-margin checks, vcvtsd2ss; a number the guard refuses is a token
// not taken.
//
// Numbers are stored at dst[count:] while they fit and counted past it. n
// is count plus the numbers taken; end is the index of the ',' or ']' after
// the last of them (i when none is).
//
// Registers: SI b, DX len(b)−64 (the last index a load may start at), R8 the
// number, DI &dst[n], R9 len(dst)−n, R10 end, R12 &pow10f; R13 t, R11 s, BX
// the fraction digits; Z0 the bytes, Z2 the bytes less '0'.
TEXT ·scanRunVBMI(SB), NOSPLIT, $0-80
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), DX
	MOVQ i+24(FP), R8
	MOVQ dst_base+32(FP), DI
	MOVQ dst_len+40(FP), R9
	MOVQ count+56(FP), AX
	LEAQ (DI)(AX*4), DI
	SUBQ AX, R9
	MOVQ R8, R10
	SUBQ $64, DX
	LEAQ ·pow10f(SB), R12
	VMOVDQU64 numIota<>(SB), Z22
	MOVL $0x2D, AX
	VPBROADCASTB AX, Z16 // '-'
	MOVL $13, AX
	VPBROADCASTB AX, Z17 // '9' − '-' + 1
	MOVL $0x30, AX
	VPBROADCASTB AX, Z18 // '0'
	MOVL $10, AX
	VPBROADCASTB AX, Z19
	MOVL $0x2E, AX
	VPBROADCASTB AX, Z20 // '.'
	MOVL $1, AX
	VPBROADCASTB AX, Z21
	MOVL $0x010A, AX     // bytes 10, 1
	VPBROADCASTW AX, Z13
	MOVL $0x00010064, AX // words 100, 1
	VPBROADCASTD AX, Z14
	MOVL $0x00012710, AX // words 10000, 1
	VPBROADCASTD AX, Z15
	VPXOR X6, X6, X6

loop:
	CMPQ R8, DX
	JGT  done
	VMOVDQU8 (SI)(R8*1), Z0
	VPSUBB   Z16, Z0, Z1
	VPCMPUB  $5, Z17, Z1, K1 // bytes outside '-'…'9': byte − '-' ≥ 13, unsigned
	KMOVQ    K1, R13
	TZCNTQ   R13, R13        // t
	VPSUBB   Z18, Z0, Z2
	VPCMPUB  $1, Z19, Z2, K2 // digits: byte − '0' < 10, unsigned
	VPCMPEQB Z20, Z0, K3     // points
	VPCMPEQB Z16, Z0, K4     // signs
	VPTESTMB Z2, Z2, K5      // bytes other than '0'
	CMPQ     R13, $42        // longer than the shape's longest
	JHI      done
	LEAQ     (R8)(R13*1), CX
	MOVBLZX  (SI)(CX*1), CX
	CMPB     CX, $0x2C       // ','
	JEQ      shape
	CMPB     CX, $0x5D       // ']'
	JNE      done

shape:
	KMOVQ  K2, AX
	KMOVQ  K3, CX
	KMOVQ  K4, R11
	BZHIQ  R13, AX, AX // the digits below t
	TZCNTQ CX, R14     // q
	ANDQ   $1, R11     // s
	MOVQ   $-1, CX
	BZHIQ  R13, CX, CX
	XORQ   R11, CX
	BTCQ   R14, CX     // every byte below t but the sign and the point
	CMPQ   AX, CX
	JNE    done
	MOVQ   R14, CX
	SUBQ   R11, CX
	DECQ   CX          // integer digits − 1
	CMPQ   CX, $17
	JHI    done
	MOVQ   R13, BX
	SUBQ   R14, BX
	SUBQ   $2, BX      // fraction digits − 1
	CMPQ   BX, $21
	JHI    done
	INCQ   BX
	KMOVQ  K5, R14
	TESTQ  CX, CX
	JEQ    significant
	BTQ    R11, R14    // a leading zero
	JCC    done

significant:
	ANDQ    AX, R14
	TZCNTQ  R14, R14   // the first significant digit
	CMPQ    R14, R13
	JCC     done       // zero: the guard refuses it too
	SHRXQ   R14, AX, CX
	POPCNTQ CX, CX
	CMPQ    CX, $18
	JHI     done

	// Right-align the digits in 24 bytes: lane j takes the digit at byte
	// j + t − 25, one byte further on past the point.
	KMOVQ        K3, R14
	TZCNTQ       R14, R14
	LEAQ         -25(R13), CX
	VPBROADCASTB CX, Z4
	VPADDB       Z22, Z4, Z4
	MOVL         $25, CX
	SUBQ         R13, CX
	ADDQ         CX, R14 // the first lane past the point
	ADDQ         R11, CX // the first lane with a digit
	MOVL         $0xFFFFFF, AX
	SHRXQ        CX, AX, AX
	SHLXQ        CX, AX, AX
	KMOVQ        AX, K6
	MOVL         $0xFFFFFF, AX
	SHRXQ        R14, AX, AX
	SHLXQ        R14, AX, AX
	KMOVQ        AX, K7
	VPADDB       Z21, Z4, K7, Z4
	VPERMB.Z     Z2, Z4, K6, Z3

	// 24 digits to three 8-digit values.
	VPMADDUBSW   Y13, Y3, Y3
	VPMADDWD     Y14, Y3, Y3
	VPACKUSDW    Y3, Y3, Y3
	VPMADDWD     Y15, Y3, Y3
	VMOVQ        X3, AX
	VEXTRACTI128 $1, Y3, X4
	VMOVD        X4, CX
	MOVL         AX, R14
	SHRQ         $32, AX
	IMUL3Q       $100000000, R14, R14
	ADDQ         AX, R14
	IMUL3Q       $100000000, R14, R14
	ADDQ         CX, R14

	// guardedFloat32(w, −fraction digits).
	VCVTSI2SDQ R14, X6, X5 // X6 is zero: no wait on the last number's X5
	MOVQ       $22, AX
	SUBQ       BX, AX
	VMULSD     (R12)(AX*8), X5, X5
	VMOVQ      X5, AX
	MOVQ       AX, CX
	SHRQ       $52, CX
	SUBQ       $897, CX
	CMPQ       CX, $253
	JCC        done
	ANDQ       $0x1FFFFFFF, AX
	SUBQ       $0x0FFFFFFD, AX
	CMPQ       AX, $6
	JLS        done
	VCVTSD2SS  X5, X5, X5
	VMOVD      X5, AX
	SHLL       $31, R11
	ORL        R11, AX
	TESTQ      R9, R9
	JLE        next
	MOVL       AX, (DI)

next:
	ADDQ $4, DI
	DECQ R9
	LEAQ (R8)(R13*1), R10
	CMPB (SI)(R10*1), $0x5D
	JEQ  done
	LEAQ 1(R10), R8
	JMP  loop

done:
	VZEROUPPER
	MOVQ R10, end+64(FP)
	MOVQ dst_len+40(FP), AX
	SUBQ R9, AX
	MOVQ AX, n+72(FP)
	RET

DATA numIota<>+0(SB)/8, $0x0706050403020100
DATA numIota<>+8(SB)/8, $0x0f0e0d0c0b0a0908
DATA numIota<>+16(SB)/8, $0x1716151413121110
DATA numIota<>+24(SB)/8, $0x1f1e1d1c1b1a1918
DATA numIota<>+32(SB)/8, $0x2726252423222120
DATA numIota<>+40(SB)/8, $0x2f2e2d2c2b2a2928
DATA numIota<>+48(SB)/8, $0x3736353433323130
DATA numIota<>+56(SB)/8, $0x3f3e3d3c3b3a3938
GLOBL numIota<>(SB), RODATA|NOPTR, $64
