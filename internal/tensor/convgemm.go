package tensor

import "unsafe"

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
// that is the run table the panels are packed through (two floats an
// entry, see convRun), and — when the product may run the narrow kernel
// (NarrowConv) — the [C·KH·KW, n] patch matrix behind it. The portable
// kernel (see KernelStatus) streams whole rows of the column matrix, so it
// needs Im2ColLen. A pointwise convolution needs none under any kernel.
func ConvScratchLen(g ConvGeom) int {
	switch {
	case g.pointwise():
		return 0
	case f32Level == f32Scalar:
		return Im2ColLen(g.C, g.H, g.W, g.KH, g.KW, g.Stride, g.Pad)
	}
	_, entries := convRunsShape(g)
	n := 2 * entries
	if NarrowConv(g) {
		oh, ow := g.OutDims()
		n += g.C * g.KH * g.KW * oh * ow
	}
	return n
}

// ConvGemmFusedParallel computes dst = ep(a @ cols(img)) — the convolution
// of one CHW image with the [m, C·KH·KW] weight matrix a, into the
// [m, OH·OW] output — where cols is the Im2Col matrix of img under g. nw,
// when not nil, is a packed by PackNarrow: a product NarrowConv admits then
// runs the narrow kernel against it on the calling goroutine, its b packed
// straight from the image (or the image itself, when pointwise), and a is
// not read. Either way the result is the same products summed in the same
// (channel, ky, kx) order from +0, a padding tap multiplied as +0 and never
// skipped, so the result is bit for bit that of Im2Col followed by
// GemmFusedParallel. The column matrix is not built. The tile kernel's
// panels are packed straight from the unpadded image through a run table
// (convRun) written into scratch (ConvScratchLen floats, contents
// irrelevant before and undefined after) on every call, so the scratch may
// be shared by convolutions of different geometry; a panel row is one
// zero-masked load per run, which reads only the image. Row-range workers
// of a product large enough to fan out (gemmGrain, as for
// GemmFusedParallel) each pack their own panels from the shared image and
// table. The portable kernel lowers with Im2Col into scratch instead. Like
// GemmFusedParallel it must not be called from inside a Parallel region.
//
// What it replaced, per VGG18-S stage convolution (3×3, stride 1, pad 1) on
// the reference box at avx512-tile8x16 — BenchmarkConvGemm, one image, µs
// per product, medians of twelve passes; lowered is Im2Col then
// GemmFusedSerial, the path before packing, tile is this entry on the tile
// kernel, gemm (BenchmarkGemm) is that kernel's GEMM alone, its column
// matrix given, the floor a panel packer can approach, and narrow is this
// entry with the weights packed as a deployment packs them, which the 2×2
// stages run on the narrow kernel (its branch total is the branch as
// deployed, the tile kernel elsewhere). The last two columns were read on a
// shared 2-vCPU Xeon at 2.1 GHz (AVX-512), as deployed (tile, narrow at
// 2×2), the fastest of twelve interleaved passes (medians there spread by
// ±20 %): plane is the
// panels packed from a copy of the image inside its zero border, with the
// 2×2 stages' patches gathered per element (VGATHERDPS); runs is this
// entry, every panel row one masked load per run from the image itself:
//
//	stage          lowered    tile    gemm   narrow    plane    runs
//	 3x16x16→16      14.8      7.4     6.7              4.6      4.3
//	16x16x16→16      69.4     37.2    28.1             20.5     18.1
//	16x8x8→32        34.7     15.6    13.0              9.5      9.8
//	32x8x8→32        64.2     29.4    27.1             19.9     16.8
//	32x4x4→48        28.8     11.9     9.9              7.8      6.2
//	48x4x4→48        44.9     17.1    13.8             12.3      9.0
//	48x2x2→64        29.4     16.1    13.9     5.1      3.6      3.5
//	64x2x2→64        44.0     24.4    18.8     6.8      4.7      4.4
//	one branch      330.2    159.1   131.2   130.6     82.8     72.1
//
// The plane cost a copy and a clear call per image row, 13 µs a branch.
// Per-element gathers were slower than it on the tile shapes (13.2 µs
// against 9.1 for copy and pack at 16×16×16). The run table is built per
// call, a few hundred entries (tiles clear of the border copy their
// neighbour's); at 3×16×16 and 16×8×8 that costs about what the plane did.
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
		b = denseSource(img, n)
	case f32Level == f32Scalar:
		b = denseSource(scratch, n)
		Im2Col(img, g.C, g.H, g.W, g.KH, g.KW, g.Stride, g.Pad, scratch)
	default:
		b = convPanels(img, g, scratch)
	}
	return b, n, k
}

// panelSource is where the tile kernel's b panels come from: a
// convolution's image, of which row p of b is tap (channel, ky, kx) = p in
// ascending order and column j is output position (j / ow, j % ow), read
// through its run table (buildRuns: for each column tile, for each of the
// taps window taps, perTap entries); or, without a table, a dense
// row-major [k,n] matrix, which is the image of a pointwise convolution —
// k channels of n — whose tiles have one run each.
type panelSource struct {
	img          []float32 // the channels one after another, hw floats each
	runs         []convRun
	taps, perTap int
	hw           int
}

// denseSource is the source of the row-major [k,n] matrix b.
func denseSource(b []float32, n int) panelSource {
	return panelSource{img: b, taps: 1, perTap: 1, hw: n}
}

// convRun is one source run of a panel row: the lanes of a column tile
// whose sources lie at one offset from the lane — the positions of one
// output row at stride 1, the whole tile when the image is as wide as the
// output (a "same" convolution, every VGG18-S stage), a single position at
// larger strides — which one masked 16-lane load fills. Every channel
// repeats the same runs, so one table serves them all. Lane i of the load
// reads the channel's float off+i; only the lanes set in lanes are read,
// so a padding tap loads +0 and touches no memory. The assembly addresses
// the fields by offset.
type convRun struct {
	off   int32  // 0: floats from the channel's first value to lane 0's
	lanes uint32 // 4: one bit per lane whose source is in the image
}

// convRunsShape returns how many runs a tap of one column tile has under
// g — one for a "same" convolution at stride 1; at stride 1 otherwise, the
// most output rows a tile of tileCols positions crosses; at larger
// strides, one per position — and the entries of g's run table: that many
// per column tile and window tap.
func convRunsShape(g ConvGeom) (perTap, entries int) {
	oh, ow := g.OutDims()
	n := oh * ow
	switch {
	case g.Stride > 1:
		perTap = min(tileCols, n)
	case ow == g.W:
		perTap = 1
	default:
		for j0 := 0; j0 < n; j0 += tileCols {
			perTap = max(perTap, (min(j0+tileCols, n)-1)/ow-j0/ow+1)
		}
	}
	return perTap, (n + tileCols - 1) / tileCols * g.KH * g.KW * perTap
}

// convPanels returns the source the tile kernel packs img's panels from
// under g, its run table built into the head of scratch.
func convPanels(img []float32, g ConvGeom, scratch []float32) panelSource {
	perTap, entries := convRunsShape(g)
	b := panelSource{img: img, taps: g.KH * g.KW, perTap: perTap, hw: g.H * g.W}
	b.runs = unsafe.Slice((*convRun)(unsafe.Pointer(unsafe.SliceData(scratch[:2*entries]))), entries)
	buildRuns(b.runs, g, perTap)
	return b
}

// buildRuns fills runs tile by tile, tap by tap, perTap entries a tap. A
// tile is cut into segments, its positions in one output row (one position
// at stride > 1), for the window's top-left tap; consecutive segments at
// the same offset from their lanes make one run. A tap moves every offset
// by ky·W+kx and keeps the lanes whose source row and column lie in the
// image; unused entries keep none. A tile cut like the one before, both
// clear of the top and bottom border, is that tile's entries moved down.
func buildRuns(runs []convRun, g ConvGeom, perTap int) {
	oh, ow := g.OutDims()
	n, block := oh*ow, g.KH*g.KW*perTap
	var cuts [2][tileCols]struct{ ix, lane, l int } // by tile parity
	var iy [tileCols]int
	j, oy, ox, lastIy, lastInside := 0, 0, 0, 0, false
	for t := 0; t*tileCols < n; t++ {
		j0, seg, segs, inside := t*tileCols, &cuts[t%2], 0, true
		for end := min(j0+tileCols, n); j < end; segs++ {
			l := 1
			if g.Stride == 1 {
				l = min(ow-ox, end-j)
			}
			iy[segs] = oy*g.Stride - g.Pad
			seg[segs].ix, seg[segs].lane, seg[segs].l = ox*g.Stride-g.Pad, j-j0, l
			inside = inside && iy[segs] >= 0 && iy[segs]+g.KH <= g.H
			if j, ox = j+l, ox+l; ox == ow {
				oy, ox = oy+1, 0
			}
		}
		clear(seg[segs:])
		out := runs[t*block : (t+1)*block]
		if inside && lastInside && cuts[0] == cuts[1] {
			d := int32((iy[0] - lastIy) * g.W)
			for i, rn := range runs[(t-1)*block : t*block] {
				out[i] = convRun{off: rn.off + d, lanes: rn.lanes}
			}
		} else {
			var run [tileCols]convRun
			r := -1
			for s, sg := range seg[:segs] {
				if off := int32(iy[s]*g.W + sg.ix - sg.lane); r < 0 || run[r].off != off {
					r++
					run[r].off = off
				}
				run[r].lanes |= laneRange(sg.lane, sg.lane+sg.l)
			}
			for kx := 0; kx < g.KW; kx++ {
				var cols uint32
				for _, sg := range seg[:segs] {
					cols |= laneRange(sg.lane+max(0, -sg.ix-kx), sg.lane+min(sg.l, g.W-sg.ix-kx))
				}
				for ky := 0; ky < g.KH; ky++ {
					live := cols
					for s, sg := range seg[:segs] {
						if uint(iy[s]+ky) >= uint(g.H) {
							live &^= laneRange(sg.lane, sg.lane+sg.l)
						}
					}
					tap, shift := out[(ky*g.KW+kx)*perTap:][:perTap], int32(ky*g.W+kx)
					for i, rn := range run[:perTap] {
						tap[i] = convRun{off: rn.off + shift, lanes: rn.lanes & live}
					}
				}
			}
		}
		lastIy, lastInside = iy[0], inside
	}
}

// laneRange returns lanes [lo, hi) as bits, none when hi ≤ lo.
func laneRange(lo, hi int) uint32 {
	if hi <= lo {
		return 0
	}
	return uint32(1)<<(hi&31) - uint32(1)<<(lo&31)
}

// packArgs is what one packConvAVX or packConvZMM call reads; the assembly
// addresses the fields by offset, so the layout is part of its contract.
// Steps are in bytes. The call walks the panel tap-major: the rows of one
// window tap, one per channel, then the next tap's, starting at row 0's.
type packArgs struct {
	dst     *float32  // 0: panel row 0
	src     *float32  // 8: the channel of row 0's tap
	runs    *convRun  // 16: the tile's runs, tap 0's first
	first   *convRun  // 24: row 0's tap's runs
	runsEnd uintptr   // 32: the address past the tile's last run
	perTap  int       // 40: runs per tap, at least 1
	hw      int       // 48: from one channel to the next
	pitch   int       // 56: from one panel row to the next
	rowStep int       // 64: from a tap's row in one channel to its row in the next
	tapRows int       // 72: taps that have rows: min(taps, kb)
	end     uintptr   // 80: the address of row kb, the first not to fill
	store   uint64    // 88: the live columns, one bit each (read by packConvZMM only)
	masks   *[8]int32 // 96: laneMasks (read by packConvAVX only)
}

// laneMasks[b] has -1 in lane i for each bit i set in b: eight of a run's
// lane bits as the vector mask VMASKMOVPS takes.
var laneMasks = func() (t [256][8]int32) {
	for b := range t {
		for i := range t[b] {
			t[b][i] = -int32(b >> i & 1)
		}
	}
	return t
}()

// packConv fills rows [0, kb) of dst, pitch floats apart, with taps
// [p0, p0+kb) of output positions [j0, j0+w): columns [j0, j0+w) of rows
// [p0, p0+kb) of the column matrix, read from the image through the run
// table instead. At AVX-512 a row stores its w live columns only, so pitch
// may be as small as w; below it a row stores all tileCols, the dead ones
// +0.
func (b *panelSource) packConv(dst []float32, pitch, j0, w, p0, kb int) {
	var ch, tap int // a divide costs as much as a short panel: only past one k block
	if p0 > 0 {
		ch, tap = p0/b.taps, p0%b.taps
	}
	stored := tileCols
	if f32Level == f32AVX512 {
		stored = w
	}
	if _ = dst[:(kb-1)*pitch+stored]; (p0+kb)*b.hw > len(b.img)*b.taps {
		panic("tensor: panel rows past the image")
	}
	var tile []convRun
	if b.runs == nil {
		one := [1]convRun{{off: int32(j0), lanes: 1<<w - 1}}
		tile = one[:]
	} else {
		tile = b.runs[j0/tileCols*b.taps*b.perTap:][:b.taps*b.perTap]
	}
	a := packArgs{
		dst: &dst[0], src: &b.img[ch*b.hw], runs: &tile[0], first: &tile[tap*b.perTap],
		runsEnd: uintptr(unsafe.Pointer(&tile[0])) + uintptr(8*len(tile)), perTap: b.perTap,
		hw: 4 * b.hw, pitch: 4 * pitch, rowStep: 4 * b.taps * pitch, tapRows: min(b.taps, kb),
		end: uintptr(unsafe.Pointer(&dst[0])) + uintptr(4*kb*pitch), store: 1<<w - 1, masks: &laneMasks[0],
	}
	if f32Level == f32AVX512 {
		packConvZMM(&a)
	} else {
		packConvAVX(&a)
	}
}
