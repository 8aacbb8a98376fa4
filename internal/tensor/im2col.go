package tensor

// Im2Col lowers one CHW image into a column matrix for convolution-as-matmul.
// src holds C*H*W values; dst receives (C*kh*kw) x (oh*ow) values laid out
// row-major, where oh/ow are the output spatial dimensions for the given
// stride and zero padding. dst must have length C*kh*kw*oh*ow.
//
// Every (channel, ky, kx) row of the column matrix is, per output row, a
// zero-padded window of one source row, so the in-bounds output range is
// computed once per kernel tap and the body has no per-element bounds
// branch: at stride 1 the window is one contiguous span (clear/copy/clear),
// at larger strides a strided gather over the hoisted range.
func Im2Col(src []float32, c, h, w, kh, kw, stride, pad int, dst []float32) (oh, ow int) {
	oh = (h+2*pad-kh)/stride + 1
	ow = (w+2*pad-kw)/stride + 1
	di := 0
	for ch := 0; ch < c; ch++ {
		plane := src[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			ylo, yhi := validRange(oh, h, ky, stride, pad)
			for kx := 0; kx < kw; kx++ {
				xlo, xhi := validRange(ow, w, kx, stride, pad)
				clear(dst[di : di+ylo*ow])
				di += ylo * ow
				for oy := ylo; oy < yhi; oy++ {
					row := dst[di : di+ow]
					srcRow := plane[(oy*stride+ky-pad)*w:][:w]
					clear(row[:xlo])
					switch {
					case xlo == xhi: // the tap only ever reads padding
					case stride == 1:
						copy(row[xlo:xhi], srcRow[xlo+kx-pad:])
					default:
						ix := xlo*stride + kx - pad
						for ox := xlo; ox < xhi; ox++ {
							row[ox] = srcRow[ix]
							ix += stride
						}
					}
					clear(row[xhi:])
					di += ow
				}
				clear(dst[di : di+(oh-yhi)*ow])
				di += (oh - yhi) * ow
			}
		}
	}
	return oh, ow
}

// validRange returns the output positions [lo, hi) ⊆ [0, out) whose input
// coordinate o*stride + k - pad falls inside [0, in): the part of one
// output row (or column) a kernel tap at offset k reads from the image
// rather than from the zero padding. lo == hi when the tap never does.
func validRange(out, in, k, stride, pad int) (lo, hi int) {
	if pad > k {
		lo = (pad - k + stride - 1) / stride
	}
	if span := in + pad - k; span > 0 {
		hi = (span + stride - 1) / stride
	}
	hi = min(hi, out)
	lo = min(lo, hi)
	return lo, hi
}

// Col2Im accumulates a column matrix back into a CHW image (the adjoint of
// Im2Col), used for convolution input gradients. dst must hold C*H*W values
// and is accumulated into (callers zero it first).
func Col2Im(src []float32, c, h, w, kh, kw, stride, pad int, dst []float32) {
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	si := 0
	for ch := 0; ch < c; ch++ {
		plane := dst[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						si += ow
						continue
					}
					rowBase := iy * w
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride + kx - pad
						if ix >= 0 && ix < w {
							plane[rowBase+ix] += src[si]
						}
						si++
					}
				}
			}
		}
	}
}

// ConvOutDim returns the output spatial size for one dimension of a
// convolution or pooling window.
func ConvOutDim(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2ColLen returns the scratch length Im2Col requires for a C×H×W input
// under the given window, so callers can size a reusable buffer once.
func Im2ColLen(c, h, w, kh, kw, stride, pad int) int {
	return c * kh * kw * ConvOutDim(h, kh, stride, pad) * ConvOutDim(w, kw, stride, pad)
}
