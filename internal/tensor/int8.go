package tensor

import "math"

// Int8 quantization primitives for the serving hot path. Weights are
// quantized offline (internal/quant); activations are quantized dynamically
// per tensor at layer boundaries with a symmetric scale. Both use the same
// round-half-away-from-zero rule, so the runtime path and the storage format
// agree bit-for-bit on every quantized value.

// IEEE-754 single-precision bit patterns MaxAbs and quantI8 work on.
const (
	f32SignBit  = 1 << 31
	f32InfBits  = 0x7F800000 // |v| bits above this are NaN
	f32HalfBits = 0x3F000000 // 0.5
)

// absBits returns |v|'s IEEE-754 bit pattern. As unsigned integers these
// order exactly like the magnitudes themselves, with every NaN above +Inf.
func absBits(v float32) uint32 { return math.Float32bits(v) &^ f32SignBit }

// MaxAbs returns the largest absolute value in xs (0 for an empty slice).
// NaN elements are skipped — a NaN never becomes a scale — and ±Inf yields
// +Inf. The scan is an unsigned integer max over magnitude bit patterns, so
// its cost does not depend on how predictable the data is; only a slice that
// holds a NaN pays for a second pass that steps over them. The loop in
// maxAbsBits is the definition and the portable path; at i8AVX2 and above
// the same max runs eight lanes wide (maxAbsSIMD: vpand + vpmaxud), and a
// max is the same whatever order it is taken in.
func MaxAbs(xs []float32) float32 {
	var m uint32
	if i8Level >= i8AVX2 && len(xs) > 0 {
		m = maxAbsSIMD(&xs[0], len(xs), &tileMasks[len(xs)%8])
	} else {
		m = maxAbsBits(xs)
	}
	if m > f32InfBits {
		m = 0
		for _, v := range xs {
			if b := absBits(v); b <= f32InfBits {
				m = max(m, b)
			}
		}
	}
	return math.Float32frombits(m)
}

// maxAbsBits is the largest magnitude bit pattern in xs, NaNs included, over
// four independent lanes.
func maxAbsBits(xs []float32) uint32 {
	var m0, m1, m2, m3 uint32
	for ; len(xs) >= 4; xs = xs[4:] {
		m0 = max(m0, absBits(xs[0]))
		m1 = max(m1, absBits(xs[1]))
		m2 = max(m2, absBits(xs[2]))
		m3 = max(m3, absBits(xs[3]))
	}
	for _, v := range xs {
		m0 = max(m0, absBits(v))
	}
	return max(m0, m1, m2, m3)
}

// QuantScale converts a tensor's max-absolute value into a symmetric int8
// scale (maxAbs/127). An all-zero tensor yields scale 1, never 0, so
// dequantize-by-multiplication and dequantize-by-division are both safe.
func QuantScale(maxAbs float32) float32 {
	s := maxAbs / 127
	if s == 0 {
		s = 1
	}
	return s
}

// quantI8 rounds v*inv half away from zero and clamps it to [-127, 127].
// The rounding step has no data-dependent branch: it adds copysign(0.5, q),
// built by or-ing q's sign bit onto 0.5, before the truncating conversion.
// The clamp's two compares are never taken when the scale came from the
// data's own MaxAbs, so they predict perfectly. ±Inf clamps to ±127; a NaN
// passes the clamp and converts however the platform converts NaN (0 on
// amd64 and arm64).
func quantI8(v, inv float32) int8 {
	q := v * inv
	if q > 127 {
		q = 127
	}
	if q < -127 {
		q = -127
	}
	half := math.Float32frombits(math.Float32bits(q)&f32SignBit | f32HalfBits)
	return int8(q + half)
}

// QuantizeI8 writes round(xs/scale) clamped to [-127, 127] into dst, rounding
// half away from zero — the same rule the offline weight quantizer uses.
// quantI8 is the definition; at i8AVX2 and above whole groups of eight values
// go through its vector form (quantI8SIMD, the step QuantizeI8HWC describes).
func QuantizeI8(xs []float32, scale float32, dst []int8) {
	inv := 1 / scale
	dst = dst[:len(xs)]
	done := 0
	if i8Level >= i8AVX2 && len(xs) >= 8 {
		done = len(xs) &^ 7
		quantI8SIMD(&dst[0], &xs[0], done, inv)
	}
	for i, v := range xs[done:] {
		dst[done+i] = quantI8(v, inv)
	}
}

// I8PlaneLen is the length of the plane QuantizeI8HWC fills for a c×h×w
// image under padding pad.
func I8PlaneLen(c, h, w, pad int) int { return c * (h + 2*pad) * (w + 2*pad) }

// quantHWCArgs is what one quantHWCSIMD call reads; the assembly addresses
// the fields by offset, so the layout is part of its contract.
type quantHWCArgs struct {
	dst     *int8      // 0: channel 0 of the first interior pixel
	src     *float32   // 8
	c       int        // 16: channels, the byte stride between pixels
	h       int        // 24
	w       int        // 32
	rowStep int        // 40: bytes between plane rows, (w+2·pad)·c
	plane   int        // 48: bytes per source channel plane, 4·h·w
	off     [3]int     // 56: byte offsets of a group's 2nd..4th channel from its 1st
	mask    *[16]int32 // 80: -1 in the first w%8 lanes
	inv     float32    // 88
	keep    uint32     // 92: the bytes of a pixel's dword that are channels
}

// QuantizeI8HWC is QuantizeI8 with a layout change folded in: src is one CHW
// image of c planes of h×w values; dst, of I8PlaneLen(c, h, w, pad) bytes,
// receives the same quantized values pixel-major (HWC) inside a border of pad
// zero pixels on every side:
//
//	dst[((y+pad)·(w+2·pad) + x+pad)·c + ch] = quantize(src[(ch·h + y)·w + x])
//
// Every pixel's channels are then contiguous and every window Im2RowI8HWC
// reads lies inside the plane, so each kernel row of each patch is one
// unconditional copy. The border is rewritten on every call — the scratch
// the plane lives in is shared by convolutions of different geometry — and
// with pad 0 the plane is the plain HWC image, which a pointwise convolution
// hands to the GEMM as its patch matrix.
//
// The loop below is the definition and the portable path. At i8AVX2 and
// above quantHWCSIMD runs it eight pixels by four channels at a time:
// vmulps; vminps and vmaxps with the value as the second source, so a NaN
// passes the clamp as it passes quantI8's two compares; (q & sign) | 0.5,
// vaddps, vcvttps2dq; then the low byte of each lane — never a saturating
// pack, which would turn the 0x80000000 a NaN converts to into -128 where the
// scalar int8(...) gives 0 — and the four channels of a pixel merged into one
// dword, stored at stride c. ±Inf clamps to ±127 in both. The last w%8
// pixels of a row are a masked load and as many stores; the last c%4
// channels are one more group over channels c-4..c-1, recomputing what it
// overlaps. With c < 4 a pixel's dword has 4-c spare bytes, stored as zeros
// onto the next pixel (written after it) or the border (zero already), which
// needs a border to exist: a c < 4 image with pad 0 is the one geometry that
// stays on the portable loop.
//
// BenchmarkInt8Front is the shape-matched rung — the three front passes on
// the eight conv inputs of one VGG18-S branch, inputs rotated over 64
// samples, µs on the reference box (medians of five, the parent commit's
// binary alternated with this one; parent is the scalar code before the
// plane had a border, its lowering clearing the padding of every patch row;
// scalar is the portable loop here, vector the i8AVX2 leg):
//
//	             MaxAbs                QuantizeI8HWC          Im2RowI8HWC
//	c×h×w      parent scalar vector   parent scalar vector   parent scalar vector
//	 3×16×16    0.46   0.47   0.04     1.07   1.50   0.25     6.09   3.35   0.51
//	16×16×16    2.01   2.01   0.21     5.50   5.87   0.84     6.68   3.71   0.74
//	16×8×8      0.51   0.49   0.05     1.43   1.57   0.25     1.57   0.89   0.17
//	32×8×8      1.04   1.02   0.10     2.72   2.86   0.44     1.68   0.98   0.25
//	32×4×4      0.24   0.25   0.04     0.73   0.76   0.23     0.41   0.24   0.06
//	48×4×4      0.39   0.39   0.04     1.11   1.11   0.34     0.47   0.31   0.12
//	48×2×2      0.10   0.10   0.01     0.33   0.29   0.19     0.12   0.08   0.04
//	64×2×2      0.13   0.13   0.02     0.46   0.36   0.23     0.13   0.08   0.05
//	one branch  4.88   4.86   0.51    13.35  14.33   2.75    17.15   9.64   1.95
//
// 35.4 µs of front passes a branch became 5.2, against 19.9 µs for the eight
// products they feed. The portable quantizer reads its input h·w apart, which
// costs the three-channel first layer 0.4 µs; the portable lowering no longer
// clears, which returns 2.7 µs there and 7.5 µs a branch.
func QuantizeI8HWC(src []float32, c, h, w, pad int, scale float32, dst []int8) {
	inv := 1 / scale
	pw := w + 2*pad
	src, dst = src[:c*h*w], dst[:I8PlaneLen(c, h, w, pad)]
	if pad > 0 {
		clear(dst)
	}
	if len(src) == 0 {
		return
	}
	interior := dst[(pad*pw+pad)*c:]
	if i8Level >= i8AVX2 && (c >= 4 || pad > 0) {
		a := quantHWCArgs{dst: &interior[0], src: &src[0], c: c, h: h, w: w, rowStep: pw * c,
			plane: 4 * h * w, mask: &tileMasks[w%8], inv: inv, keep: uint32(uint64(1)<<(8*min(c, 4)) - 1)}
		for j := range a.off {
			a.off[j] = min(j+1, c-1) * a.plane
		}
		quantHWCSIMD(&a)
		return
	}
	// Pixel-major: a pixel's channels are stored together and read h·w apart,
	// so the border costs the loop nothing — no row ends inside a channel run.
	hw := h * w
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			si := y*w + x
			px := interior[(y*pw+x)*c:][:c]
			for ch := range px {
				px[ch] = quantI8(src[si], inv)
				si += hw
			}
		}
	}
}

// requantArgs is what one requantRowsSIMD call reads; the assembly addresses
// the fields by offset, so the layout is part of its contract.
type requantArgs struct {
	dst    *float32   // 0
	acc    *int32     // 8
	n      int        // 16: elements per row, at least 1
	rows   int        // 24: at least 1
	mask   *[16]int32 // 32: -1 in the first n%8 lanes
	scales *float32   // 40: one weight scale per row
	bias   *float32   // 48: nil, or one per row
	mean   *float32   // 56: nil, or the rows' epilogue values ...
	g      *float32   // 64
	inv    *float32   // 72
	beta   *float32   // 80
	sx     float32    // 88: the activation scale
	relu   bool       // 92: rectify after the epilogue (read only with mean set)
}

// RequantizeRows takes the len(scales) rows of n int32 accumulators a
// quantized product left in acc back to float32 and finishes each in the
// same pass:
//
//	dst[i*n+p] = float32(acc[i*n+p])*(scales[i]*sx) + bias[i], then ep.ApplyRow(row i, i)
//
// scales are the per-row weight scales, sx the activation scale, bias (nil
// for none) the float32 bias, ep (nil for none) the epilogue. The loop below
// is the definition and the portable path; under the AVX gate every row is
// one vector pass in the same operation order, bit-identical to it.
func RequantizeRows(dst []float32, acc []int32, n int, scales []float32, sx float32, bias []float32, ep *Epilogue) {
	rows := len(scales)
	dst, acc = dst[:rows*n], acc[:rows*n]
	ep.covers(rows)
	if bias != nil {
		bias = bias[:rows]
	}
	if hasSIMD && rows*n > 0 {
		a := requantArgs{dst: &dst[0], acc: &acc[0], n: n, rows: rows, mask: &tileMasks[n%8], scales: &scales[0], sx: sx}
		if bias != nil {
			a.bias = &bias[0]
		}
		if ep != nil {
			a.mean, a.g, a.inv, a.beta, a.relu = &ep.Mean[0], &ep.Gamma[0], &ep.InvStd[0], &ep.Beta[0], ep.ReLU
		}
		requantRowsSIMD(&a)
		return
	}
	for i, s := range scales {
		f := s * sx
		var b float32
		if bias != nil {
			b = bias[i]
		}
		row := dst[i*n : (i+1)*n]
		for p, v := range acc[i*n : (i+1)*n] {
			row[p] = float32(v)*f + b
		}
		if ep != nil {
			ep.ApplyRow(row, i)
		}
	}
}

// Im2RowI8 lowers one quantized CHW image into patch rows for the int8 GEMM.
// src holds C*H*W int8 values; dst receives (oh*ow) x (C*kh*kw) values laid
// out row-major — one contiguous patch per output pixel, with the in-patch
// index ordered channel, then kernel row, then kernel column, matching the
// conv weight layout [OutC, C*kh*kw]. Zero padding contributes quantized
// zeros exactly. dst must have length C*kh*kw*oh*ow.
func Im2RowI8(src []int8, c, h, w, kh, kw, stride, pad int, dst []int8) (oh, ow int) {
	oh = (h+2*pad-kh)/stride + 1
	ow = (w+2*pad-kw)/stride + 1
	patch := c * kh * kw
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := dst[(oy*ow+ox)*patch:][:patch]
			di := 0
			for ch := 0; ch < c; ch++ {
				plane := src[ch*h*w : (ch+1)*h*w]
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						for kx := 0; kx < kw; kx++ {
							row[di] = 0
							di++
						}
						continue
					}
					rowBase := iy * w
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= w {
							row[di] = 0
						} else {
							row[di] = plane[rowBase+ix]
						}
						di++
					}
				}
			}
		}
	}
	return oh, ow
}

// im2rowI8Args is what one im2rowI8SIMD call reads; the assembly addresses
// the fields by offset, so the layout is part of its contract.
type im2rowI8Args struct {
	dst     *int8 // 0
	src     *int8 // 8: the plane's first byte
	oh      int   // 16: at least 1
	ow      int   // 24: at least 1
	kh      int   // 32: at least 1
	seg     int   // 40: bytes per kernel row of a patch, kw·c
	rowStep int   // 48: bytes between plane rows
	pixStep int   // 56: bytes between the windows of adjacent output pixels, stride·c
	rowAdv  int   // 64: bytes between the windows of adjacent output rows, stride·rowStep
}

// Im2RowI8HWC lowers one quantized image into patch rows for the int8 GEMM.
// src is the zero-bordered HWC plane QuantizeI8HWC wrote for the same c, h, w
// and pad; dst receives (oh*ow) x (kh*kw*C) values — one contiguous patch per
// output pixel, ordered kernel row, then kernel column, then channel. In that
// order each kernel row of a patch is a single run of kw*C contiguous plane
// bytes at any stride, and the border makes every run lie inside the plane,
// so a patch is kh unconditional copies: the loop below, and at i8AVX2 and
// above im2rowI8SIMD, the same copies with the pixel, row and kernel-row
// loops in assembly. The weight rows the patches meet in the GEMM must use
// the same (ky, kx, channel) order; int32 accumulation is exact, so the
// product equals the channel-major Im2RowI8 one bit for bit. dst must have
// length C*kh*kw*oh*ow.
func Im2RowI8HWC(src []int8, c, h, w, kh, kw, stride, pad int, dst []int8) (oh, ow int) {
	oh = (h+2*pad-kh)/stride + 1
	ow = (w+2*pad-kw)/stride + 1
	seg := kw * c
	rowStep := (w + 2*pad) * c
	if oh <= 0 || ow <= 0 || kh*seg == 0 {
		return oh, ow
	}
	src, dst = src[:I8PlaneLen(c, h, w, pad)], dst[:oh*ow*kh*seg]
	if i8Level >= i8AVX2 {
		im2rowI8SIMD(&im2rowI8Args{dst: &dst[0], src: &src[0], oh: oh, ow: ow, kh: kh, seg: seg,
			rowStep: rowStep, pixStep: stride * c, rowAdv: stride * rowStep})
		return oh, ow
	}
	di := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			si := oy*stride*rowStep + ox*stride*c
			for ky := 0; ky < kh; ky++ {
				copy(dst[di:di+seg], src[si:])
				di += seg
				si += rowStep
			}
		}
	}
	return oh, ow
}
