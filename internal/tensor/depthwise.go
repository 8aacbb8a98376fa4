package tensor

// dwVector reports whether DepthwiseFused runs the vector kernel for g: a 3×3
// window at stride 1 or 2 over a non-empty image the window fits inside once
// padded. Everything else — and every channel whose weights are not all
// finite — runs depthwiseChannel, the definition.
func dwVector(g ConvGeom) bool {
	return f32Level >= f32AVX && g.KH == 3 && g.KW == 3 && (g.Stride == 1 || g.Stride == 2) &&
		g.C >= 1 && g.H >= 1 && g.W >= 1 && g.H+2*g.Pad >= 3 && g.W+2*g.Pad >= 3
}

// DepthwiseScratchLen returns the scratch, in floats, DepthwiseFused needs for
// one image of geometry g: one channel's plane inside its zero border,
// (H+2·Pad)·(W+2·Pad), when the vector kernel runs it, and nothing otherwise.
func DepthwiseScratchLen(g ConvGeom) int {
	if !dwVector(g) {
		return 0
	}
	return (g.H + 2*g.Pad) * (g.W + 2*g.Pad)
}

// DepthwiseFused computes dst = ep(depthwise(img)) for one CHW image of
// geometry g: channel ch of the [C, OH·OW] output is channel ch of img
// convolved with the KH×KW filter filt[ch·KH·KW:], and a non-nil ep then
// maps it as output row ch (see Epilogue). The result is bit for bit that of
// depthwiseChannel followed by ApplyRow — the same products, each window's
// taps summed from +0 in (ky, kx) order, one mul and one add rounding each.
//
// The vector kernel (see KernelStatus, f32dw=) takes a 3×3 window at stride
// 1 or 2. Per channel it copies the plane once into scratch
// (DepthwiseScratchLen floats; contents irrelevant before and undefined
// after) inside a zero border that is cleared once per call; at stride 2
// each plane row is stored de-interleaved, even columns then odd, so every
// tap of an output row is one contiguous run either way. The nine weights
// stay broadcast in registers while each output row is walked 8, 4 and 1
// columns wide, four output rows at a time, with vmulps then vaddps — never
// a fused multiply-add — and the epilogue applied before the one store. A
// padding tap multiplies a stored +0: a finite weight makes that ±0, which
// leaves a sum that started at +0 unchanged (it cannot be -0), so it is the
// tap the definition skips. An infinite or NaN weight would make it NaN, so
// a channel with one runs the definition instead, as does every other
// geometry and a host without the vector kernel.
//
// What it replaced, per MobileNet-S depthwise convolution (3×3, pad 1) on
// the reference box — BenchmarkDepthwiseForwardInto, one image, µs per call,
// medians of three passes, inputs rotated over 64 samples; definition is the
// loop the layer ran before:
//
//	input      stride   definition   vector
//	16x16x16     1          89.8       2.69
//	24x16x16     2          32.2       1.84
//	32x8x8       1          48.1       1.50
//	32x8x8       2          11.2       1.05
//	48x4x4       1          15.0       1.24
//	48x4x4       2           4.3       1.73
//	one branch             200.6      10.1
//
// The 2×2 output is where it gains least: two columns walked one wide, with
// only two distinct output rows for the four chains of a tile, so the nine
// dependent adds of a window are barely overlapped.
func DepthwiseFused(dst, filt, img []float32, g ConvGeom, scratch []float32, ep *Epilogue) {
	oh, ow := g.OutDims()
	hw, ohw, kk := g.H*g.W, oh*ow, g.KH*g.KW
	dst, filt, img = dst[:g.C*ohw], filt[:g.C*kk], img[:g.C*hw]
	ep.covers(g.C)
	vector := dwVector(g)
	var a dwArgs
	if vector {
		a = dwArgsFor(g, scratch)
		a.dst, a.img, a.filt = &dst[0], &img[0], &filt[0]
		if ep != nil {
			a.mean, a.g, a.inv, a.beta, a.relu = &ep.Mean[0], &ep.Gamma[0], &ep.InvStd[0], &ep.Beta[0], ep.ReLU
		}
	}
	for ch := 0; ch < g.C; {
		end := ch
		for vector && end < g.C && finite(filt[end*kk:(end+1)*kk]) {
			end++
		}
		if end > ch {
			a.ch, a.end = ch, end
			depthwise3x3SIMD(&a)
			ch = end
			continue
		}
		out := dst[ch*ohw : (ch+1)*ohw]
		depthwiseChannel(out, filt[ch*kk:(ch+1)*kk], img[ch*hw:(ch+1)*hw], g)
		if ep != nil {
			ep.ApplyRow(out, ch)
		}
		ch++
	}
}

// depthwiseChannel is the definition of one channel's depthwise convolution:
// each output is its window's in-image taps summed from +0 in (ky, kx) order,
// padding taps skipped.
func depthwiseChannel(dst, filt, plane []float32, g ConvGeom) {
	oh, ow := g.OutDims()
	di := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			var s float32
			for ky := 0; ky < g.KH; ky++ {
				iy := oy*g.Stride + ky - g.Pad
				if iy < 0 || iy >= g.H {
					continue
				}
				for kx := 0; kx < g.KW; kx++ {
					ix := ox*g.Stride + kx - g.Pad
					if ix < 0 || ix >= g.W {
						continue
					}
					s += filt[ky*g.KW+kx] * plane[iy*g.W+ix]
				}
			}
			dst[di] = s
			di++
		}
	}
}

// finite reports whether no weight in ws is infinite or NaN.
func finite(ws []float32) bool {
	for _, v := range ws {
		if absBits(v) >= f32InfBits {
			return false
		}
	}
	return true
}

// dwArgs is what one depthwise3x3SIMD call reads; the assembly addresses the
// fields by offset, so the layout is part of its contract. Sizes and steps
// are in bytes unless they count rows, columns or channels. The kernel
// writes only ch, and finds a channel's data from channel 0's: a pointer it
// advanced past the last channel would point past the end of its slice,
// which the garbage collector must never see.
type dwArgs struct {
	dst, img, filt *float32 // 0, 8, 16: channel 0's output, input plane and nine weights; outStep, inStep and 36 bytes a channel
	plane          *float32 // 24: the scratch plane, its border already zero
	interior       *float32 // 32: the plane row the first input row is copied into
	end            int      // 40: one past the last channel to run
	h, w           int      // 48, 56: input rows and columns, at least 1 each
	oh, ow         int      // 64, 72
	pw4            int      // 80: one plane row
	evenAt, oddAt  int      // 88, 96: where in its plane row an input row's even (at stride 1: every) and odd columns go
	tap1, tap2     int      // 104, 112: from a window row's first tap to its second and third
	srcRow, dstRow int      // 120, 128: from one output row's first tap, and its first output, to the next row's
	tileSrc        [3]int   // 136, 144, 152: from a tile's first row's first tap to its other three rows'
	tileDst        [3]int   // 160, 168, 176: the same in dst
	tileRows       int      // 184: distinct rows in a tile, min(4, oh); the rest repeat the last
	stride         int      // 192: 1 or 2
	inStep         int      // 200: one input channel
	outStep        int      // 208: one output channel
	mean, g        *float32 // 216, 224: nil, or channel 0's epilogue values ...
	inv, beta      *float32 // 232, 240
	relu           bool     // 248: rectify after the epilogue (read only with mean set)
	ch             int      // 256: the channel to run next, below end
}

// dwArgsFor lays out the plane of geometry g (dwVector) in scratch and clears
// it: the border stays zero for the whole call, since each channel's copy
// writes only the interior.
func dwArgsFor(g ConvGeom, scratch []float32) dwArgs {
	oh, ow := g.OutDims()
	pw := g.W + 2*g.Pad
	scratch = scratch[:(g.H+2*g.Pad)*pw]
	clear(scratch)
	a := dwArgs{
		plane: &scratch[0], interior: &scratch[g.Pad*pw],
		h: g.H, w: g.W, oh: oh, ow: ow, pw4: 4 * pw, stride: g.Stride,
		srcRow: 4 * g.Stride * pw, dstRow: 4 * ow, tileRows: min(4, oh),
		inStep: 4 * g.H * g.W, outStep: 4 * oh * ow,
	}
	for r := range a.tileSrc {
		row := min(r+1, a.tileRows-1)
		a.tileSrc[r], a.tileDst[r] = row*a.srcRow, row*a.dstRow
	}
	if g.Stride == 1 {
		a.evenAt, a.tap1, a.tap2 = 4*g.Pad, 4, 8
		return a
	}
	// Padded column c of a de-interleaved row sits at c/2 when c is even and
	// at ne + c/2 when it is odd: tap kx of output column ox is column
	// 2·ox + kx, so the three taps start at 0, ne and 1.
	ne := (pw + 1) / 2
	slot := func(c int) int { return c/2 + c%2*ne }
	a.evenAt, a.oddAt, a.tap1, a.tap2 = 4*slot(g.Pad), 4*slot(g.Pad+1), 4*ne, 4
	return a
}
