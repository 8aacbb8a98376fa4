package tensor

// ConvGeom is the geometry of one convolution over a single CHW image: C
// channels of H×W, a KH×KW window, and the stride and zero padding applied in
// both spatial dimensions.
type ConvGeom struct {
	C, H, W     int
	KH, KW      int
	Stride, Pad int
}

// OutDims returns the output's spatial dimensions.
func (g ConvGeom) OutDims() (oh, ow int) {
	return ConvOutDim(g.H, g.KH, g.Stride, g.Pad), ConvOutDim(g.W, g.KW, g.Stride, g.Pad)
}

// pointwise reports whether the column matrix is the image itself: a 1×1
// window at stride 1 without padding.
func (g ConvGeom) pointwise() bool {
	return g.KH == 1 && g.KW == 1 && g.Stride == 1 && g.Pad == 0
}

// ConvScratchLen returns the scratch, in floats, ConvGemmFusedParallel and
// ConvGemmFusedSerial need for one image of geometry g. With the tile kernel
// that is the image inside its zero border, C·(H+2·Pad)·(W+2·Pad), and
// nothing for an unpadded convolution, or — when the product may run the
// narrow kernel (NarrowConv) and that needs more — its patch matrix and
// gather table (narrowScratchLen). The portable kernel (see KernelStatus)
// streams whole rows of the column matrix, so it needs Im2ColLen. A
// pointwise convolution needs none under any kernel.
func ConvScratchLen(g ConvGeom) int {
	switch {
	case g.pointwise():
		return 0
	case f32Level == f32Scalar:
		return Im2ColLen(g.C, g.H, g.W, g.KH, g.KW, g.Stride, g.Pad)
	}
	n := 0
	if g.Pad != 0 {
		n = g.C * (g.H + 2*g.Pad) * (g.W + 2*g.Pad)
	}
	if NarrowConv(g) {
		n = max(n, narrowScratchLen(g))
	}
	return n
}

// ConvGemmFusedParallel computes dst = ep(a @ cols(img)) — the convolution
// of one CHW image with the [m, C·KH·KW] weight matrix a, into the
// [m, OH·OW] output — where cols is the Im2Col matrix of img under g. nw,
// when not nil, is a packed by PackNarrow: a product NarrowConv admits then
// runs the narrow kernel against it on the calling goroutine, its b
// gathered straight from the image (or the image itself, when pointwise),
// and a is not read. Either way the result is the
// same products summed in the same (channel, ky, kx) order from +0, a
// padding tap multiplied as +0 and never skipped, so the result is bit for
// bit that of Im2Col followed by GemmFusedParallel. The column matrix is
// not built. The tile kernel's panels are packed straight from the image:
// img is copied once into scratch (ConvScratchLen floats, contents
// irrelevant before and undefined after) with a zero border, every cell of
// which is written on every call, so the scratch may be shared by
// convolutions of different geometry; in that plane each tap of each output
// row is one contiguous (or, at stride > 1, evenly strided) run, and a
// panel row is filled from those runs. Row-range workers of a product
// large enough to fan out (gemmGrain, as for GemmFusedParallel) each pack
// their own panels from the shared plane. The portable kernel lowers with
// Im2Col into scratch instead. Like GemmFusedParallel it must not be called
// from inside a Parallel region.
//
// What it replaced, per VGG18-S stage convolution (3×3, stride 1, pad 1) on
// the reference box at avx512-tile8x16 — BenchmarkConvGemm, one image, µs
// per product, medians of twelve passes; lowered is Im2Col then
// GemmFusedSerial, the path before packing, tile is this entry on the tile
// kernel, gemm (BenchmarkGemm) is that kernel's GEMM alone, its column
// matrix given, the floor a panel packer can approach, and narrow is this
// entry with the weights packed as a deployment packs them, which the 2×2
// stages run on the narrow kernel (its branch total is the branch as
// deployed, the tile kernel elsewhere):
//
//	stage          lowered    tile    gemm   narrow
//	 3x16x16→16      14.8      7.4     6.7
//	16x16x16→16      69.4     37.2    28.1
//	16x8x8→32        34.7     15.6    13.0
//	32x8x8→32        64.2     29.4    27.1
//	32x4x4→48        28.8     11.9     9.9
//	48x4x4→48        44.9     17.1    13.8
//	48x2x2→64        29.4     16.1    13.9     5.1
//	64x2x2→64        44.0     24.4    18.8     6.8
//	one branch      330.2    159.1   131.2   130.6
//
// A Go loop of fixed-size array copies in place of packConvSIMD is the step
// that did not land (one branch 148.5 against 112.1, in the quieter session
// that chose the packer): the compiler turns any copy over 16 bytes between
// slices it cannot prove disjoint into a memmove call, at 5–10 ns a panel
// row against packConvSIMD's 1–2. What is left above gemm on the 4×4
// stages is mostly padImage, a copy and a clear per image row of 4 floats;
// the 2×2 stages, where it and the panel cost as much as the product,
// gather their patch matrix straight from the image instead (narrow.go).
// Other geometries (odd widths, strides whose tiles cross output rows) go
// through packConv's Go loop and read level with lowered (±5 %); stride 2
// at ow = 16 reads 43 µs against 50.
func ConvGemmFusedParallel(dst, a []float32, nw *NarrowWeights, img []float32, m int, g ConvGeom, scratch []float32, ep *Epilogue) {
	convGemm(dst, a, nw, img, m, g, scratch, ep, true)
}

// ConvGemmFusedSerial is ConvGemmFusedParallel on the calling goroutine, for
// callers that are themselves a Parallel work function (one image per
// worker, each with its own scratch).
func ConvGemmFusedSerial(dst, a []float32, nw *NarrowWeights, img []float32, m int, g ConvGeom, scratch []float32, ep *Epilogue) {
	convGemm(dst, a, nw, img, m, g, scratch, ep, false)
}

func convGemm(dst, a []float32, nw *NarrowWeights, img []float32, m int, g ConvGeom, scratch []float32, ep *Epilogue, fanOut bool) {
	if nw != nil && NarrowConv(g) {
		convNarrow(dst, nw, img, m, g, scratch, ep)
		return
	}
	b, n, k := convSource(img, g, scratch)
	gemm(dst[:m*n], a[:m*k], b, m, n, k, ep, fanOut)
}

// convSource prepares the [k,n] b operand of one image's convolution for
// the kernel this process runs, using scratch as ConvScratchLen describes.
func convSource(img []float32, g ConvGeom, scratch []float32) (b panelSource, n, k int) {
	oh, ow := g.OutDims()
	n, k = oh*ow, g.C*g.KH*g.KW
	img, scratch = img[:g.C*g.H*g.W], scratch[:ConvScratchLen(g)]
	switch {
	case g.pointwise():
		b.dense = img
	case f32Level == f32Scalar:
		b.dense = scratch
		Im2Col(img, g.C, g.H, g.W, g.KH, g.KW, g.Stride, g.Pad, scratch)
	default:
		b = padImage(scratch, img, g)
	}
	return b, n, k
}

// panelSource is where the tile kernel's b panels come from: a dense
// row-major [k,n] matrix, or — when plane is set — a convolution's image, of
// which row p of b is tap (channel, ky, kx) = p in ascending order and
// column j is output position (j / ow, j % ow).
type panelSource struct {
	dense []float32

	// plane holds the image's channels one after another, chanLen floats
	// each in rows of pw, zero border included. ow is the output width, kh×kw
	// the window. run is nonzero when every tile is made of evenly spaced
	// source runs of that one length, which packConvSIMD then copies: at
	// stride 1, 8 when 8 divides ow, else ow when that is 4 or 2; at larger
	// strides single floats, when a tile never leaves its output row
	// (tileCols divides ow). Every other geometry is packed by packConv's
	// own loop.
	plane       []float32
	pw, chanLen int
	ow, kh, kw  int
	stride, run int
}

// padImage lays img out as the plane packConv reads — filling scratch, inside
// a border of g.Pad zeros, or in place when there is no padding — and
// returns the source over it. The border is written here, on every call, together
// with the interior: one clear covers the right border of a row and the
// left border of the next.
func padImage(scratch, img []float32, g ConvGeom) panelSource {
	pw, ph := g.W+2*g.Pad, g.H+2*g.Pad
	_, ow := g.OutDims()
	b := panelSource{plane: img, pw: pw, chanLen: ph * pw, ow: ow, kh: g.KH, kw: g.KW, stride: g.Stride}
	switch {
	case g.Stride > 1:
		if ow%tileCols == 0 {
			b.run = 1
		}
	case ow%8 == 0:
		b.run = 8
	case ow == 4 || ow == 2:
		b.run = ow
	}
	if g.Pad == 0 {
		return b
	}
	b.plane = scratch
	gap := 2 * g.Pad
	lead := g.Pad*pw + g.Pad // the top border rows and the first row's left border
	d, s := 0, 0
	for ch := 0; ch < g.C; ch++ {
		clear(b.plane[d : d+lead])
		d += lead
		for y := 0; y < g.H; y++ {
			copy(b.plane[d:d+g.W], img[s:s+g.W])
			clear(b.plane[d+g.W : d+g.W+gap])
			d += g.W + gap
			s += g.W
		}
		clear(b.plane[d : d+lead-gap]) // what is left of the bottom border rows
		d += lead - gap
	}
	return b
}

// packArgs is what one packConvSIMD call reads; the assembly addresses the
// fields by offset, so the layout is part of its contract. Steps are in
// bytes.
type packArgs struct {
	dst     *float32 // 0: panel, kb rows of tileCols floats
	src     *float32 // 8: the first tap's source for the tile's first column
	kb      int      // 16: taps to pack, at least 1
	runStep int      // 24: from one run's source to the next
	runs    int      // 32: runs per panel row, at least 1
	kxLeft  int      // 40: taps left in the first tap's window row, itself included
	kyLeft  int      // 48: window rows left in its channel, its own included
	rowSkip int      // 56: from a window row's last tap to the next row's first, less one float
	chSkip  int      // 64: from a channel's last window row to the next channel's first, on top of rowSkip
	kw, kh  int      // 72, 80
	run     int      // 88: floats per run: 8, 4, 2 or 1
}

// packConv fills rows [0, kb) of the panel with taps [p0, p0+kb) of output
// positions [j0, j0+w): what packPanelSIMD would copy out of the column
// matrix, read from the plane instead. Columns past w are left as they are;
// the tile kernel never stores them.
func (b *panelSource) packConv(panel *[kBlock * tileCols]float32, j0, w, p0, kb int) {
	oy, ox := j0/b.ow, j0%b.ow
	taps := b.kh * b.kw
	ch, tap := p0/taps, p0%taps
	ky, kx := tap/b.kw, tap%b.kw
	if b.run != 0 {
		// Tiles start at multiples of tileCols, so on a run boundary. Single
		// floats are a stride apart. Longer runs each fill an output row,
		// except that with 8 | ow a tile's second run is either next to the
		// first or opens the next row.
		runStep := b.pw - ox
		switch {
		case b.run == 1:
			runStep = b.stride
		case ox+b.run < b.ow:
			runStep = b.run
		}
		packConvSIMD(&packArgs{
			dst: &panel[0], src: &b.plane[ch*b.chanLen+(oy*b.stride+ky)*b.pw+ox*b.stride+kx], kb: kb,
			runStep: 4 * runStep, runs: w / b.run, run: b.run,
			kxLeft: b.kw - kx, kyLeft: b.kh - ky, kw: b.kw, kh: b.kh,
			rowSkip: 4 * (b.pw - b.kw), chSkip: 4 * (b.chanLen - b.kh*b.pw),
		})
		return
	}
	// Any width, any stride: one run per output row the tile crosses.
	rowStep := b.stride * b.pw
	for p := 0; p < kb; p++ {
		row := panel[p*tileCols:][:w]
		src := b.plane[ch*b.chanLen+(oy*b.stride+ky)*b.pw+kx:]
		for x := ox; ; x = 0 {
			l := min(b.ow-x, len(row))
			if b.stride == 1 {
				copy(row[:l], src[x:])
			} else {
				from := src[x*b.stride:][:(l-1)*b.stride+1]
				for i := range row[:l] {
					row[i] = from[i*b.stride]
				}
			}
			if row = row[l:]; len(row) == 0 {
				break
			}
			src = src[rowStep:]
		}
		if kx++; kx == b.kw {
			kx = 0
			if ky++; ky == b.kh {
				ky = 0
				ch++
			}
		}
	}
}
