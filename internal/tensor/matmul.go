package tensor

import (
	"fmt"
	"math"
)

// The matmul kernel is written for the serving hot path. On amd64 with AVX
// a product is computed as register tiles: four output rows by sixteen
// output columns held in eight YMM accumulators over the whole shared
// dimension and stored once (gemmTileSIMD), against a b panel packed once
// per column tile so the sweep reads contiguous memory whatever b's row
// stride is; with AVX-512 the tile is eight rows by sixteen columns in eight
// ZMM accumulators (gemmTile8x16) over the same panel, and only the m%8
// rows of a range are left to the four-row tile. Elsewhere the portable
// row-quad kernel (axpy4Scalar) streams b rows through four accumulating c
// rows. Both perform exactly one mul
// rounding and one add rounding per element per p, in ascending p starting
// from +0, so results are bit-identical across the SIMD and scalar paths
// and across serial and parallel execution. (The payload of a NaN is the
// one thing left to the hardware's operand order; that an element is NaN
// is not.)

// rowBlock is the register-blocking factor: output rows computed
// simultaneously per streamed b row.
const rowBlock = 4

// f32Kernel names a float32 vector level. The values are ordered: a CPU that
// passes the gate of one also runs every level below it, which is what lets
// the tests walk down from the detected level. BenchmarkConvGemm is the
// shape-matched rung — the eight VGG18-S stage convolutions packed from the
// image, a tile leg per level and, at AVX-512, the narrow kernel's for the
// 2×2 stages, µs on the reference box (medians of six to twelve rounds; the
// host was shared and read about 1.4× slower than in the session that chose
// the panel packer, see ConvGemmFusedParallel):
//
//	stage          avx-tile4x16   avx512-tile8x16   avx512 narrow
//	 3x16x16→16        10.0              7.4
//	16x16x16→16        42.4             37.2
//	16x8x8→32          17.2             15.6
//	32x8x8→32          39.4             29.4
//	32x4x4→48          14.8             11.9
//	48x4x4→48          22.9             17.1
//	48x2x2→64          19.1             16.1               5.1
//	64x2x2→64          25.4             24.4               6.8
//	one branch        191.4            159.1 (0.83×)     130.6 (0.68×)
//
// The ZMM tile issues half the multiplies and adds per output of the YMM
// one, yet a row of 16 costs about ¾ of what it did, not ½: on the
// reference CPU 512-bit multiplies and adds have fewer ports to issue on
// than 256-bit ones. The first two stages are mostly packing. On the 2×2
// stages both tiles run mostly padding, which the narrow kernel does not.
type f32Kernel int

const (
	f32Scalar f32Kernel = iota // axpy4Scalar; every other float32 pass is its Go loop
	f32AVX                     // gemmTileSIMD: 4×16 in YMM, plus the AVX passes
	f32AVX512                  // gemmTile8x16: 8×16 in ZMM, and the ZMM max pool
)

func (l f32Kernel) String() string {
	return [...]string{"scalar-4x4", "avx-tile4x16", "avx512-tile8x16"}[l]
}

// f32Rows is the row block of the float32 product at the current level: the
// tile height the parallel split hands out whole ranges of, so no cut leaves
// a chunk with a short tile the kernel could have run whole.
func f32Rows() int {
	if f32Level == f32AVX512 {
		return 2 * rowBlock
	}
	return rowBlock
}

// tileCols is the register tile's width in output columns (two YMM per row).
const tileCols = 16

// kBlock bounds the packed panel: kBlock rows of tileCols floats (16 KiB) on
// the calling goroutine's stack, resident in L1 beside the four a rows while
// the row quads sweep it. BenchmarkGemm is flat from 128 to 576 on the
// reference box and loses a few percent at 64.
const kBlock = 256

// parallelMACs is W, the least work a pool worker is woken for, in
// multiply-accumulates: a product leaves its goroutine only when it can be
// cut into at least two row ranges of this size, so the smallest cube that
// fans out is 256³. It is read off BenchmarkGemmCrossover on the reference
// box (2 cores, GOMAXPROCS=2; µs per product, serial / cut in two; the int8
// column is the avx512vnni-4x4 kernel, re-read when it landed — the avx2-dot4
// column it replaced ran 21/29 … 12740/7640 and crossed at the same place):
//
//	total MACs   f32            int8
//	   0.1 M        4.6 /    7.6    1.9 /  2.8
//	   1.0 M         37 /     53     10 /   16
//	   3.0 M         99 /    141     24 /   27
//	   9.9 M        370 /    395     76 /   73
//	  29.8 M       1117 /    761    205 /  193
//	  99.9 M       3324 /   1893    610 /  411
//	 300.8 M      13106 /   6495   1852 /  998
//
// Below ≈ 10 M MACs the wake-up costs more than the second core returns, in
// both precisions, and that is the benchmark's tight loop, where the pool
// worker is still spinning when the next product arrives; a worker that has
// parked costs more. The int8 hand-off breaks even between 10 M and 30 M
// (the tile kernel is five to seven times faster per MAC than float32, and
// at 30 M the second core returns 6 % where float32 gets 32 %): within 2× of
// the 16.8 M the rule puts the smallest fan-out at, so both precisions keep
// the one rule. Every single-sample GEMM in the zoo is under 0.6 M. The
// amx-int8 kernel breaks even only between 100 M and 300 M (serial / cut
// in two, a later session on the same box: 29.8 M 87 / 117, 99.9 M
// 230 / 267, 300.8 M 1035 / 803); no zoo product comes within two orders
// of magnitude of either figure, so the rule stays shared.
const parallelMACs = 1 << 23

// narrowCols is the width below which a packed convolution runs the narrow
// kernel: fewer output positions than one column tile. It is read off
// BenchmarkNarrowCrossover on the reference box (2 cores, AVX-512; µs per
// product of 64 channels over k = 576, VGG18-S's last stage, on a dense b;
// medians of five runs; tile is the 8×16 tile kernel, narrow is gemmNarrow
// against weights packed once):
//
//	 n    tile   narrow
//	 2    17.9     3.0
//	 4    15.9     4.9
//	 8    18.2     9.3
//	16    25.9    19.5
//
// The tile costs about the same at any n up to one 16-wide column tile, the
// narrow kernel in proportion to n. At n = 16 the tile's lanes are all live
// and a convolution's panel is packed from its plane in whole runs, so the
// 4×4 stages keep the tile; below it the narrow kernel is ahead 2× at n = 8
// and more the narrower the product.
const narrowCols = 16

// gemmGrain is the dispatch rule the float32 and int8 GEMMs share: the
// number of row blocks, each of rows output rows, that amount to
// parallelMACs for an [m,k]@[k,n] product, passed to Parallel as its grain. A product with
// fewer than two such ranges runs on the calling goroutine.
func gemmGrain(rows, n, k int) int {
	return (parallelMACs-1)/max(rows*n*k, 1) + 1
}

// Epilogue is a per-output-row affine map, optionally rectified, that a
// GEMM applies to each element as its tile is finished:
//
//	v = Gamma[i]*(v-Mean[i])*InvStd[i] + Beta[i];  if ReLU && !(v > 0) { v = 0 }
//
// in exactly that operation order — eval-mode batch normalization followed
// by ReLU.ForwardInto, without two more passes over the output.
type Epilogue struct {
	// Mean, Gamma, InvStd and Beta hold one value per output row.
	Mean, Gamma, InvStd, Beta []float32
	// ReLU rectifies after the affine map.
	ReLU bool
}

// ApplyRow applies the epilogue of output row i to row in place. It is the
// in-tree definition of what the tile kernel does in registers, and the
// path for rows the tile kernel does not produce.
func (e *Epilogue) ApplyRow(row []float32, i int) {
	mu, g, inv, bt := e.Mean[i], e.Gamma[i], e.InvStd[i], e.Beta[i]
	if !e.ReLU {
		for j, v := range row {
			row[j] = g*(v-mu)*inv + bt
		}
		return
	}
	for j, v := range row {
		row[j] = ReLU(g*(v-mu)*inv + bt)
	}
}

// covers panics unless the epilogue (nil is fine) has a value for each of m
// output rows: the tile kernel reads them without bounds checks.
func (e *Epilogue) covers(m int) {
	if e != nil {
		_, _, _, _ = e.Mean[:m], e.Gamma[:m], e.InvStd[:m], e.Beta[:m]
	}
}

// ReLU returns v when v > 0 and +0 otherwise (so NaN and -0 give +0),
// computed on the bit pattern so random-sign data costs no mispredicted
// branch: v is kept iff its sign bit is clear and it is not above +Inf.
func ReLU(v float32) float32 {
	s := int32(math.Float32bits(v))
	keep := ^(s >> 31) & ^((0x7f800000 - s) >> 31)
	return math.Float32frombits(uint32(s & keep))
}

// MatMul returns a @ b for rank-2 tensors of shapes [m,k] and [k,n].
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.Dim(0), b.Dim(1))
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a @ b, reusing dst's storage. dst must have shape
// [a.Dim(0), b.Dim(1)] and must not alias a or b. Products big enough to pay
// for a wake-up (gemmGrain) are split across the persistent worker pool by
// output-row block.
func MatMulInto(dst, a, b *Tensor) {
	m, n, k := matmulDims(dst, a, b)
	GemmFusedParallel(dst.data, a.data, b.data, m, n, k, nil)
}

// GemmParallel is the raw-slice form of MatMulInto. Like MatMulInto, it must
// not be called from inside a Parallel region (use GemmSerial there).
func GemmParallel(dst, a, b []float32, m, n, k int) {
	GemmFusedParallel(dst, a, b, m, n, k, nil)
}

// GemmFusedParallel computes dst = ep(a @ b) on raw row-major slices
// ([m,k] @ [k,n] → [m,n]; a nil ep is the plain product), split across the
// worker pool by output-row block when gemmGrain says the work is worth a
// wake-up and run on the calling goroutine — no closure, no allocation —
// otherwise.
func GemmFusedParallel(dst, a, b []float32, m, n, k int, ep *Epilogue) {
	gemm(dst[:m*n], a[:m*k], panelSource{dense: b[:k*n]}, m, n, k, ep, true)
}

// gemm is the one dispatch rule of the float32 product, whatever its b
// source: the calling goroutine unless fanOut is set and gemmGrain cuts the
// row blocks into at least two ranges, each of which then packs its own
// panels from the shared, read-only source.
func gemm(cd, ad []float32, b panelSource, m, n, k int, ep *Epilogue, fanOut bool) {
	ep.covers(m)
	rows := f32Rows()
	blocks := (m + rows - 1) / rows
	grain := gemmGrain(rows, n, k)
	if !fanOut || blocks/grain <= 1 || Workers() == 1 {
		gemmRows(cd, ad, b, n, k, 0, m, ep)
		return
	}
	Parallel(blocks, grain, func(_, lo, hi int) {
		gemmRows(cd, ad, b, n, k, lo*rows, min(hi*rows, m), ep)
	})
}

// GemmSerial computes dst = a @ b on the calling goroutine, bit-identical to
// GemmParallel. It exists so scratch-reusing callers (layer inference paths,
// per-worker backward buffers) can run the kernel on slice views without
// building Tensor headers.
func GemmSerial(dst, a, b []float32, m, n, k int) {
	GemmFusedSerial(dst, a, b, m, n, k, nil)
}

// GemmFusedSerial is GemmFusedParallel on the calling goroutine.
func GemmFusedSerial(dst, a, b []float32, m, n, k int, ep *Epilogue) {
	gemm(dst[:m*n], a[:m*k], panelSource{dense: b[:k*n]}, m, n, k, ep, false)
}

// TransposeSerial writes the transpose of the row-major m×n matrix src into
// dst (n×m), on the calling goroutine. The slices must not overlap.
func TransposeSerial(dst, src []float32, m, n int) {
	for i := 0; i < m; i++ {
		row := src[i*n : (i+1)*n]
		for j, v := range row {
			dst[j*m+i] = v
		}
	}
}

func matmulDims(dst, a, b *Tensor) (m, n, k int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	m, k = a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v @ %v", a.shape, b.shape))
	}
	if dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulInto destination %v for product [%d,%d]", dst.shape, m, n))
	}
	return m, n, k
}

// tileArgs is what one gemmTileSIMD or gemmTile8x16 call reads; the
// assembly addresses the fields by offset, so the layout is part of its
// contract.
type tileArgs struct {
	c    *float32   // 0: tile's first element in dst, row stride ldc
	a    *float32   // 8: first of the tile's four or eight a rows at this k block, row stride lda
	b    *float32   // 16: packed panel, kb rows of tileCols floats
	ldc  int        // 24
	lda  int        // 32
	kb   int        // 40: panel rows, at least 1
	mask *[16]int32 // 48: -1 for each live column
	acc  int        // 56: nonzero = continue from the c tile (a later k block)
	w    int        // 64: live columns, 1..tileCols
	mean *float32   // 72: nil, or the tile rows' epilogue values ...
	g    *float32   // 80
	inv  *float32   // 88
	beta *float32   // 96
	relu bool       // 104: rectify after the epilogue (read only with mean set)
}

// tileMasks[w] has -1 in its first w lanes: the column mask of a tile with w
// live columns.
var tileMasks = func() (t [tileCols + 1][16]int32) {
	for w := range t {
		for j := 0; j < w; j++ {
			t[w][j] = -1
		}
	}
	return t
}()

// gemmRows computes output rows [r0, r1) of cd = ep(ad @ b), b being [k,n].
// Only the tile path reads a convolution source; the portable path is handed
// the dense matrix (see ConvGemmFusedParallel).
func gemmRows(cd, ad []float32, b panelSource, n, k, r0, r1 int, ep *Epilogue) {
	bd := b.dense
	quads := r0 + (r1-r0)/rowBlock*rowBlock
	if f32Level >= f32AVX && k > 0 && n > 0 {
		// Column tile, then k block, then row tile: the panel is packed once
		// and swept by every tile while it is hot — 8-row tiles first under
		// AVX-512, then 4-row ones. A remainder row (fewer than rowBlock
		// left) is a 4-row tile whose rows alias it — zero row strides — so
		// it runs the same arithmetic at vector speed.
		octs := r0
		if f32Level == f32AVX512 {
			octs += (r1 - r0) / 8 * 8
		}
		quads = octs + (r1-octs)/rowBlock*rowBlock
		var panel [kBlock * tileCols]float32
		t := tileArgs{b: &panel[0], relu: ep != nil && ep.ReLU}
		for j0 := 0; j0 < n; j0 += tileCols {
			t.w = min(tileCols, n-j0)
			t.mask = &tileMasks[t.w]
			for p0 := 0; p0 < k; p0 += kBlock {
				t.kb = min(kBlock, k-p0)
				if b.plane != nil {
					b.packConv(&panel, j0, t.w, p0, t.kb)
				} else {
					packPanelSIMD(&panel[0], &bd[p0*n+j0], n, t.kb, t.mask)
				}
				t.acc = p0
				fuse := ep != nil && p0+t.kb == k
				t.ldc, t.lda = n, k
				for i := r0; i < quads; {
					t.c, t.a = &cd[i*n+j0], &ad[i*k+p0]
					if fuse {
						t.mean, t.g, t.inv, t.beta = &ep.Mean[i], &ep.Gamma[i], &ep.InvStd[i], &ep.Beta[i]
					}
					if i < octs {
						gemmTile8x16(&t)
						i += 8
					} else {
						gemmTileSIMD(&t)
						i += rowBlock
					}
				}
				t.ldc, t.lda, t.mean = 0, 0, nil
				for i := quads; i < r1; i++ {
					t.c, t.a = &cd[i*n+j0], &ad[i*k+p0]
					gemmTileSIMD(&t)
				}
			}
		}
		if ep != nil {
			for i := quads; i < r1; i++ {
				ep.ApplyRow(cd[i*n:(i+1)*n], i)
			}
		}
		return
	}
	i := r0
	for ; i < quads; i += rowBlock {
		c0 := cd[(i+0)*n : (i+1)*n]
		c1 := cd[(i+1)*n : (i+2)*n]
		c2 := cd[(i+2)*n : (i+3)*n]
		c3 := cd[(i+3)*n : (i+4)*n]
		clear(cd[i*n : (i+4)*n])
		var al [4]float32
		for p := 0; p < k; p++ {
			al[0], al[1], al[2], al[3] = ad[i*k+p], ad[(i+1)*k+p], ad[(i+2)*k+p], ad[(i+3)*k+p]
			axpy4Scalar(c0, c1, c2, c3, bd[p*n:(p+1)*n], &al)
		}
	}
	// Remainder rows: single-row axpy with the same accumulate-every-term
	// semantics as the quad kernel, so all rows of one product treat
	// non-finite values identically.
	for ; i < r1; i++ {
		ci := cd[i*n : (i+1)*n]
		clear(ci)
		for p, av := range ad[i*k : (i+1)*k] {
			for j, bv := range bd[p*n : (p+1)*n] {
				ci[j] += av * bv
			}
		}
	}
	if ep != nil {
		for i = r0; i < r1; i++ {
			ep.ApplyRow(cd[i*n:(i+1)*n], i)
		}
	}
}

// axpy4Scalar is the portable row-quad kernel: the inner loop is unrolled
// four wide so the compiler keeps the b loads and the four accumulating
// streams in registers.
func axpy4Scalar(c0, c1, c2, c3, b []float32, a *[4]float32) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	n := len(b)
	j := 0
	for ; j+3 < n; j += 4 {
		b0, b1, b2, b3 := b[j], b[j+1], b[j+2], b[j+3]
		c0[j] += a0 * b0
		c0[j+1] += a0 * b1
		c0[j+2] += a0 * b2
		c0[j+3] += a0 * b3
		c1[j] += a1 * b0
		c1[j+1] += a1 * b1
		c1[j+2] += a1 * b2
		c1[j+3] += a1 * b3
		c2[j] += a2 * b0
		c2[j+1] += a2 * b1
		c2[j+2] += a2 * b2
		c2[j+3] += a2 * b3
		c3[j] += a3 * b0
		c3[j+1] += a3 * b1
		c3[j+2] += a3 * b2
		c3[j+3] += a3 * b3
	}
	for ; j < n; j++ {
		bv := b[j]
		c0[j] += a0 * bv
		c1[j] += a1 * bv
		c2[j] += a2 * bv
		c3[j] += a3 * bv
	}
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	out := New(a.Dim(1), a.Dim(0))
	TransposeInto(out, a)
	return out
}

// TransposeInto writes the transpose of rank-2 a into dst, reusing dst's
// storage. dst must have shape [a.Dim(1), a.Dim(0)] and must not alias a.
func TransposeInto(dst, a *Tensor) {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires a rank-2 tensor")
	}
	m, n := a.Dim(0), a.Dim(1)
	if dst.Dim(0) != n || dst.Dim(1) != m {
		panic(fmt.Sprintf("tensor: TransposeInto destination %v for transpose of %v", dst.shape, a.shape))
	}
	TransposeSerial(dst.data, a.data, m, n)
}
