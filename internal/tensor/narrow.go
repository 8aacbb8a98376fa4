package tensor

import "strconv"

// The narrow kernel is the AVX-512 float32 product for a convolution whose
// output has fewer than narrowCols positions (VGG18-S's 2×2 stages,
// MobileNet-S's last pointwise convolution). The 8×16 tile puts output
// positions on its lanes, so at n = 4 three quarters of every panel row it
// multiplies is padding. gemmNarrowZMM turns the product around: output
// channels sit on the lanes of two ZMM registers, 32 per call, and each
// position's patch value is broadcast. It reads the weights packed k-major
// in 32-channel blocks (NarrowWeights), which a deployment packs once per
// convolution, and a patch matrix the tile path's packer writes straight
// from the image (packConv) at n floats a row. Each output is the same
// per-element operation sequence the tile kernel runs — one mul and one
// add rounding per p, in ascending p from +0, then the epilogue — so the
// choice is unobservable.

// narrowLanes is the narrow kernel's block of output channels: two ZMM
// registers of sixteen.
const narrowLanes = 32

// narrowSpan is the most output positions one gemmNarrowZMM call holds, two
// ZMM accumulators each; gemmNarrow covers wider products in spans.
const narrowSpan = 8

// NarrowWeights is an m×k float32 weight matrix in the layout the narrow
// kernel reads, chosen once by PackNarrow: blocks of narrowLanes rows, each
// block k-major — the block's value of every row at p, then at p+1 — and the
// last block zero-filled past row m. A packed matrix is immutable and safe
// to share between goroutines.
type NarrowWeights struct {
	m, k int
	data []float32
}

// PackNarrow lays out the row-major m×k matrix a for the narrow kernel, or
// returns nil when this process runs none (below AVX-512) or the product is
// empty. The pack is a copy: it does not follow later changes to a.
func PackNarrow(a []float32, m, k int) *NarrowWeights {
	if f32Level < f32AVX512 || m == 0 || k == 0 {
		return nil
	}
	a = a[:m*k]
	w := &NarrowWeights{m: m, k: k, data: make([]float32, (m+narrowLanes-1)/narrowLanes*narrowLanes*k)}
	// Row by row of the pack, so its stores are sequential and the block's
	// source rows stay cached from one p to the next.
	for i0 := 0; i0 < m; i0 += narrowLanes {
		blk := w.data[i0*k:]
		for p := 0; p < k; p++ {
			row := blk[p*narrowLanes:][:min(narrowLanes, m-i0)]
			for l := range row {
				row[l] = a[(i0+l)*k+p]
			}
		}
	}
	return w
}

// NarrowConv reports whether a convolution of geometry g, given its weights
// packed by PackNarrow, runs the narrow kernel: whether this process has it
// and g's output has fewer than narrowCols positions.
func NarrowConv(g ConvGeom) bool {
	oh, ow := g.OutDims()
	return f32Level == f32AVX512 && oh*ow < narrowCols
}

// narrowKernel names, for KernelStatus, the narrow kernel level l runs —
// 32 channels on the lanes, below narrowCols positions — or says it is off.
func narrowKernel(l f32Kernel) string {
	if l == f32AVX512 {
		return "avx512-32ch-below" + strconv.Itoa(narrowCols)
	}
	return "off"
}

// narrowArgs is what one gemmNarrowZMM call reads; the assembly addresses
// the fields by offset, so the layout is part of its contract.
type narrowArgs struct {
	c    *float32 // 0: the block's first output in dst, for its first position; rows n floats apart
	w    *float32 // 8: the channel block's packed weights, k rows of narrowLanes floats
	b    *float32 // 16: b's value at p = 0 for the first position; positions one float apart
	ldb  int      // 24: bytes from one b row to the next
	k    int      // 32: at least 1
	n    int      // 40: dst's row length
	cols int      // 48: positions to compute, 1..narrowSpan
	rows int      // 56: live channels, 1..narrowLanes
	mean *float32 // 64: nil, or the block's epilogue values ...
	g    *float32 // 72
	inv  *float32 // 80
	beta *float32 // 88
	relu bool     // 96: rectify after the epilogue (read only with mean set)
}

// convNarrow is ConvGemmFusedParallel on the narrow kernel, against weights
// packed for the product. A pointwise convolution's image is its b; any
// other's patch matrix is packed into scratch behind the run table, rows n
// floats apart, by the tile path's packer.
func convNarrow(dst []float32, w *NarrowWeights, img []float32, m int, g ConvGeom, scratch []float32, ep *Epilogue) {
	oh, ow := g.OutDims()
	n, k := oh*ow, g.C*g.KH*g.KW
	if w.m != m || w.k != k {
		panic("tensor: narrow weights packed for another product")
	}
	var b []float32
	if g.pointwise() {
		b = img[:k*n]
	} else {
		src := convPanels(img[:g.C*g.H*g.W], g, scratch)
		b = scratch[2*len(src.runs):][:k*n]
		src.packConv(b, n, 0, n, 0, k)
	}
	gemmNarrow(dst[:m*n], w, b, n, n, ep)
}

// gemmNarrow computes cd = ep(w @ b) into the row-major [w.m, n]
// destination, b being [w.k, n] with rows ldb floats apart (a dense matrix,
// ldb = n, or a conv panel, ldb = tileCols), on the calling goroutine.
func gemmNarrow(cd []float32, w *NarrowWeights, b []float32, ldb, n int, ep *Epilogue) {
	ep.covers(w.m)
	_, _ = cd[:w.m*n], b[:(w.k-1)*ldb+n]
	t := narrowArgs{ldb: 4 * ldb, k: w.k, n: n, relu: ep != nil && ep.ReLU}
	for i0 := 0; i0 < w.m; i0 += narrowLanes {
		t.w, t.rows = &w.data[i0*w.k], min(narrowLanes, w.m-i0)
		if ep != nil {
			t.mean, t.g, t.inv, t.beta = &ep.Mean[i0], &ep.Gamma[i0], &ep.InvStd[i0], &ep.Beta[i0]
		}
		for j0 := 0; j0 < n; j0 += narrowSpan {
			t.c, t.b, t.cols = &cd[i0*n+j0], &b[j0], min(narrowSpan, n-j0)
			gemmNarrowZMM(&t)
		}
	}
}
