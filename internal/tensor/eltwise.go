package tensor

import (
	"math"
	"math/bits"
)

// The element-wise passes of inference — the 2×2 max pool after a pooled
// stage, the add of a residual or of the secure branch's merge, the
// rectifier — run vector kernels at the levels that have them and the Go
// loops below everywhere else. Each kernel is its loop to the bit: a max and
// a rectifier are selections, an add is one IEEE addition. Only which of two
// NaN operands a sum keeps is left to the hardware's operand order, as in
// the GEMM.

// MaxPool2 writes the 2×2, stride-2 max pool of planes planes of h×w floats
// in src to dst (planes × h/2 × w/2; an odd last row or column is ignored).
// Each window's values a, b, c, d (row-major) are folded in that order by
// maxGT, so a NaN, -0 against +0 and ties come out as the argmax-recording
// training pool leaves them.
//
// Under AVX-512 (KernelStatus, pool=) the windows are gathered into ZMM
// lanes by VPERMI2PS through per-width lane tables: when w is even, h is
// even and w/2 divides 8, the whole input is one line, 32 contiguous floats
// to eight outputs; otherwise every window row pair is a line, 32 floats of
// each of its two rows to 16 outputs. BenchmarkMaxPool2, µs per VGG18-S
// pooled stage output, post-ReLU, rotated over 64 samples, on the reference
// box (medians of five; the same shared-host caveat as f32Kernel's table):
//
//	input       scalar-2x2   avx512-2x2
//	16x16x16       9.51         0.67
//	32x8x8         5.24         0.25
//	48x4x4         2.58         0.12
//	64x2x2         1.49         0.06
func MaxPool2(dst, src []float32, planes, h, w int) {
	oh, ow := h/2, w/2
	dst, src = dst[:planes*oh*ow], src[:planes*h*w]
	if len(dst) == 0 {
		return
	}
	if f32Level == f32AVX512 {
		maxPool2Vector(dst, src, planes, h, w)
		return
	}
	maxPool2Scalar(dst, src, planes, h, w)
}

// poolKernel names the pool MaxPool2 runs at level l.
func poolKernel(l f32Kernel) string {
	if l == f32AVX512 {
		return "avx512-2x2"
	}
	return "scalar-2x2"
}

// maxPool2Scalar is MaxPool2's definition and its portable path: per window
// the same four values in the same order through maxGT, with no argmax to
// carry and no branch to mispredict.
func maxPool2Scalar(od, xd []float32, planes, h, w int) {
	oh, ow := h/2, w/2
	for pl := 0; pl < planes; pl++ {
		plane := xd[pl*h*w : (pl+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			out := od[(pl*oh+oy)*ow:][:ow]
			r0 := plane[2*oy*w:][:2*ow]
			r1 := plane[(2*oy+1)*w:][:2*ow]
			for ox := range out {
				bv := maxGT(r0[2*ox], r0[2*ox+1])
				bv = maxGT(bv, r1[2*ox])
				out[ox] = maxGT(bv, r1[2*ox+1])
			}
		}
	}
}

// maxGT returns v when v > bv and bv otherwise — not the builtin max, which
// propagates NaN and orders -0 below +0 — selected on the bit patterns so
// the comparison costs a flag, not a branch.
func maxGT(bv, v float32) float32 {
	var take uint32
	if v > bv {
		take = 1
	}
	b := math.Float32bits(bv)
	return math.Float32frombits(b ^ (b^math.Float32bits(v))&-take)
}

// pool2Args is what one maxPool2AVX512 call reads; the assembly addresses
// the fields by offset, so the layout is part of its contract. A line is a
// run of outputs whose windows' top values come from one source and bottom
// values from another, below bytes further on; byte steps throughout.
type pool2Args struct {
	dst       *float32      // 0
	src       *float32      // 8: the first line's top source
	lanes     *[4][16]int32 // 16: lane tables of a, b (into the top source) and c, d (the bottom)
	planes    int           // 24: at least 1
	lines     int           // 32: lines per plane, at least 1
	outs      int           // 40: outputs per line, at least 1
	step      int           // 48: outputs of a full step, 8 or 16; 32 floats of each source
	below     int           // 56: from a line's top source to its bottom one (0: the same floats)
	lineSkip  int           // 64: from a line's top source to the next line's
	planeSkip int           // 72: more at the end of a plane
	stepMask  int           // 80: store mask of a full step
	tailLo    int           // 88: load masks of the last step's two ZMM of each source
	tailHi    int           // 96
	tailMask  int           // 104: store mask of the last step
}

// poolLanes[s] are the lane tables of a line whose windows are ow = 1<<s
// wide, for s < 4 — the whole input as one line, every eight outputs a
// block of 32 contiguous floats, window j at 4·ow·(j/ow) + 2·(j%ow) — and
// poolLanes[4] those of a window row pair, output j at 2j of both rows.
// Lanes 8..15 of the first four repeat lanes 0..7; a full step stores eight.
var poolLanes = func() (t [5][4][16]int32) {
	for s := range t {
		for i := range 16 {
			a, c := 2*i, 2*i
			if s < 4 {
				ow, j := 1<<s, i%8
				a = 4*ow*(j/ow) + 2*(j%ow)
				c = a + 2*ow
			}
			t[s][0][i], t[s][1][i], t[s][2][i], t[s][3][i] = int32(a), int32(a+1), int32(c), int32(c+1)
		}
	}
	return t
}()

// maxPool2Vector lays MaxPool2 out as lines for maxPool2AVX512.
func maxPool2Vector(dst, src []float32, planes, h, w int) {
	oh, ow := h/2, w/2
	a := pool2Args{dst: &dst[0], src: &src[0], planes: planes, lines: oh, outs: ow, step: 16,
		below: 4 * w, lineSkip: 8 * w, planeSkip: 4 * (h % 2) * w, lanes: &poolLanes[4]}
	in := 2 // floats per output in each source
	if w%2 == 0 && h%2 == 0 && ow <= 8 && 8%ow == 0 {
		a.planes, a.lines, a.outs, a.step, a.below = 1, 1, len(dst), 8, 0
		a.lanes = &poolLanes[bits.Len(uint(ow))-1]
		in = 4
	}
	tail := a.outs % a.step * in
	a.stepMask = 1<<a.step - 1
	a.tailLo, a.tailHi = 1<<min(tail, 16)-1, 1<<max(tail-16, 0)-1
	a.tailMask = 1<<(a.outs%a.step) - 1
	maxPool2AVX512(&a)
}

// AddInPlace adds o element-wise into t. Shapes must match exactly.
func (t *Tensor) AddInPlace(o *Tensor) {
	mustMatch(t, o, "AddInPlace")
	addInto(t.data, o.data, false)
}

// AddReLUInPlace sets t to ReLU(t + o) element-wise, one pass that is bit
// for bit AddInPlace followed by ReLUInto. Shapes must match exactly.
func (t *Tensor) AddReLUInPlace(o *Tensor) {
	mustMatch(t, o, "AddReLUInPlace")
	addInto(t.data, o.data, true)
}

func addInto(dst, src []float32, relu bool) {
	src = src[:len(dst)]
	if f32Level >= f32AVX && len(dst) > 0 {
		addSIMD(&dst[0], &src[0], len(dst), &tileMasks[len(dst)%8], relu)
		return
	}
	if relu {
		for i, v := range src {
			dst[i] = ReLU(dst[i] + v)
		}
		return
	}
	for i, v := range src {
		dst[i] += v
	}
}

// ReLUInto writes ReLU(src[i]) to dst[i]; the slices have the same length
// and dst may be src.
func ReLUInto(dst, src []float32) {
	src = src[:len(dst)]
	if f32Level >= f32AVX && len(dst) > 0 {
		reluSIMD(&dst[0], &src[0], len(dst), &tileMasks[len(dst)%8])
		return
	}
	for i, v := range src {
		dst[i] = ReLU(v)
	}
}
