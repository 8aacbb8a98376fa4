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
// +Inf. The scan is an integer max over four independent lanes of magnitude
// bit patterns, so its cost does not depend on how predictable the data is;
// only a slice that holds a NaN pays for a second pass that steps over them.
func MaxAbs(xs []float32) float32 {
	var m0, m1, m2, m3 uint32
	rest := xs
	for ; len(rest) >= 4; rest = rest[4:] {
		m0 = max(m0, absBits(rest[0]))
		m1 = max(m1, absBits(rest[1]))
		m2 = max(m2, absBits(rest[2]))
		m3 = max(m3, absBits(rest[3]))
	}
	for _, v := range rest {
		m0 = max(m0, absBits(v))
	}
	m := max(m0, m1, m2, m3)
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
func QuantizeI8(xs []float32, scale float32, dst []int8) {
	inv := 1 / scale
	dst = dst[:len(xs)]
	for i, v := range xs {
		dst[i] = quantI8(v, inv)
	}
}

// QuantizeI8HWC is QuantizeI8 with a layout change folded in: src is one CHW
// image of c planes of hw values, dst receives the same quantized values
// pixel-major (HWC), dst[p*c+ch] = quantize(src[ch*hw+p]). Every pixel's
// channels are then contiguous, which is what lets Im2RowI8HWC build a patch
// from a few long copies. dst must have length c*hw.
func QuantizeI8HWC(src []float32, c, hw int, scale float32, dst []int8) {
	inv := 1 / scale
	dst = dst[:c*hw]
	for ch := 0; ch < c; ch++ {
		plane := src[ch*hw : (ch+1)*hw]
		di := ch
		for _, v := range plane {
			dst[di] = quantI8(v, inv)
			di += c
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

// Im2RowI8HWC lowers one quantized HWC image (QuantizeI8HWC output) into
// patch rows for the int8 GEMM. dst receives (oh*ow) x (kh*kw*C) values —
// one contiguous patch per output pixel, ordered kernel row, then kernel
// column, then channel. In that order each kernel row of a patch is a single
// run of up to kw*C contiguous source bytes at any stride, so a patch is kh
// copies with the padding cleared around them instead of C*kh*kw bounds-
// checked bytes. The weight rows the patches meet in the GEMM must use the
// same (ky, kx, channel) order; int32 accumulation is exact, so the product
// equals the channel-major Im2RowI8 one bit for bit. dst must have length
// C*kh*kw*oh*ow.
func Im2RowI8HWC(src []int8, c, h, w, kh, kw, stride, pad int, dst []int8) (oh, ow int) {
	oh = (h+2*pad-kh)/stride + 1
	ow = (w+2*pad-kw)/stride + 1
	seg := kw * c
	di := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			// Kernel columns [kxlo, kxhi) of this pixel's window lie inside
			// the image.
			x0 := ox*stride - pad
			kxlo := min(max(-x0, 0), kw)
			kxhi := max(min(w-x0, kw), kxlo)
			for ky := 0; ky < kh; ky++ {
				run := dst[di : di+seg]
				di += seg
				iy := oy*stride + ky - pad
				if iy < 0 || iy >= h || kxlo == kxhi {
					clear(run)
					continue
				}
				clear(run[:kxlo*c])
				copy(run[kxlo*c:kxhi*c], src[(iy*w+x0+kxlo)*c:])
				clear(run[kxhi*c:])
			}
		}
	}
	return oh, ow
}
